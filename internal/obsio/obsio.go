// Package obsio serialises predictor observations to and from JSON, so a
// run's counters and epoch stream can be recorded once and analysed
// offline — the way a deployed DEP+BURST would be used (collect cheap
// counters online, decide or study offline).
package obsio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"depburst/internal/core"
	"depburst/internal/kernel"
)

// formatVersion guards against loading observations written by an
// incompatible build.
const formatVersion = 1

// envelope wraps an observation with versioning metadata.
type envelope struct {
	Version  int               `json:"version"`
	Workload string            `json:"workload,omitempty"`
	Obs      *core.Observation `json:"observation"`
}

// Write serialises obs to w as versioned JSON.
func Write(w io.Writer, workload string, obs *core.Observation) error {
	if obs == nil {
		return fmt.Errorf("obsio: nil observation")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(envelope{Version: formatVersion, Workload: workload, Obs: obs}); err != nil {
		return fmt.Errorf("obsio: encode: %w", err)
	}
	return bw.Flush()
}

// Read deserialises an observation written by Write.
func Read(r io.Reader) (workload string, obs *core.Observation, err error) {
	var env envelope
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&env); err != nil {
		return "", nil, fmt.Errorf("obsio: decode: %w", err)
	}
	if env.Version != formatVersion {
		return "", nil, fmt.Errorf("obsio: unsupported format version %d (want %d)", env.Version, formatVersion)
	}
	if env.Obs == nil {
		return "", nil, fmt.Errorf("obsio: no observation in file")
	}
	if err := validate(env.Obs); err != nil {
		return "", nil, err
	}
	return env.Workload, env.Obs, nil
}

// WriteFile records obs to path.
func WriteFile(path, workload string, obs *core.Observation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, workload, obs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads an observation from path.
func ReadFile(path string) (string, *core.Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	return Read(f)
}

// MaxThreadID is the largest thread ID an observation may name. DEP keeps
// one slack entry per thread ID up to the largest it sees, so the cap
// bounds that table (8 bytes per ID) for recordings from outside; a
// simulated run numbers its threads densely from 0 and stays far below it.
const MaxThreadID = 1 << 16

// validate rejects observations that would make predictors misbehave.
func validate(obs *core.Observation) error {
	if obs.Base <= 0 {
		return fmt.Errorf("obsio: non-positive base frequency %v", obs.Base)
	}
	if obs.Total < 0 {
		return fmt.Errorf("obsio: negative total time %v", obs.Total)
	}
	var prevEnd int64 = -1
	for i, ep := range obs.Epochs {
		if ep.End < ep.Start {
			return fmt.Errorf("obsio: epoch %d ends before it starts", i)
		}
		if int64(ep.Start) < prevEnd {
			return fmt.Errorf("obsio: epoch %d overlaps its predecessor", i)
		}
		prevEnd = int64(ep.End)
		if ep.StallTID != kernel.NoThread && (ep.StallTID < 0 || ep.StallTID > MaxThreadID) {
			return fmt.Errorf("obsio: epoch %d stalls thread %d, outside [0, %d]", i, ep.StallTID, MaxThreadID)
		}
		for _, sl := range ep.Slices {
			if sl.TID < 0 || sl.TID > MaxThreadID {
				return fmt.Errorf("obsio: epoch %d has a slice of thread %d, outside [0, %d]", i, sl.TID, MaxThreadID)
			}
		}
	}
	for i, t := range obs.Threads {
		if t.End < t.Start {
			return fmt.Errorf("obsio: thread %d ends before it starts", i)
		}
		if t.TID > MaxThreadID {
			return fmt.Errorf("obsio: thread %d has ID %d, above %d", i, t.TID, MaxThreadID)
		}
	}
	return nil
}
