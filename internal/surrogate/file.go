package surrogate

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// FileSchema names the model-file payload layout. Bump on incompatible
// change; old files then fail to load instead of decoding partially.
const FileSchema = "depburst-surrogate/1"

// Model-file framing, simcache-style: magic, format version, payload
// length, payload CRC, then a gob-encoded filePayload. Self-checking, so
// truncation, corruption or version skew reads as a clean error — never a
// partially-loaded model.
var fileMagic = [4]byte{'D', 'B', 'S', 'G'}

const (
	fileVersion    uint32 = 1
	fileHeaderSize        = 4 + 4 + 8 + 4
)

// filePayload is the serialized model. Slices only, sorted before
// encoding, so two trainings on the same corpus write byte-identical
// files. Laws are refit on load (deterministic) rather than stored.
type filePayload struct {
	Schema            string
	Gamma             float64
	InterpErr         float64
	ExtrapErr         float64
	KNNErr            float64
	FeatMean, FeatStd []float64
	Groups            []fileGroup
}

type fileGroup struct {
	ID    string
	Bench string
	Feat  []float64
	Pts   []point
}

// Encode serializes the model.
func (m *Model) Encode() ([]byte, error) {
	m.mu.RLock()
	p := filePayload{
		Schema: FileSchema, Gamma: m.gamma,
		InterpErr: m.interpErr, ExtrapErr: m.extrapErr, KNNErr: m.knnErr,
		FeatMean: m.featMean, FeatStd: m.featStd,
	}
	for _, g := range m.groups {
		p.Groups = append(p.Groups, fileGroup{ID: g.id, Bench: g.bench, Feat: g.feat, Pts: g.pts})
	}
	m.mu.RUnlock()

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(p); err != nil {
		return nil, fmt.Errorf("surrogate: encode: %w", err)
	}
	out := make([]byte, fileHeaderSize+payload.Len())
	copy(out[:4], fileMagic[:])
	binary.LittleEndian.PutUint32(out[4:8], fileVersion)
	binary.LittleEndian.PutUint64(out[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	copy(out[fileHeaderSize:], payload.Bytes())
	return out, nil
}

// WriteFile atomically writes the model to path: it is staged in a uniquely
// named temp file in path's directory and renamed into place, so readers
// only ever see a complete model and concurrent writers never rename each
// other's partial files.
func (m *Model) WriteFile(path string) error {
	raw, err := m.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("surrogate: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	return nil
}

// Decode loads a model from its serialized form. Every malformation —
// truncation, bad framing, checksum or schema mismatch, non-finite
// statistics, malformed groups — returns an error; it never panics and
// never yields a partially-valid model.
func Decode(raw []byte) (*Model, error) {
	if len(raw) < fileHeaderSize {
		return nil, fmt.Errorf("surrogate: model file truncated")
	}
	if [4]byte(raw[:4]) != fileMagic {
		return nil, fmt.Errorf("surrogate: not a model file")
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != fileVersion {
		return nil, fmt.Errorf("surrogate: model file version %d, want %d", v, fileVersion)
	}
	payload := raw[fileHeaderSize:]
	if n := binary.LittleEndian.Uint64(raw[8:16]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("surrogate: model file length mismatch")
	}
	if binary.LittleEndian.Uint32(raw[16:20]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("surrogate: model file checksum mismatch")
	}
	var p filePayload
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("surrogate: decode: %w", err)
	}
	if p.Schema != FileSchema {
		return nil, fmt.Errorf("surrogate: model schema %q, want %q", p.Schema, FileSchema)
	}
	for _, v := range append(append([]float64{p.Gamma, p.InterpErr, p.ExtrapErr, p.KNNErr}, p.FeatMean...), p.FeatStd...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("surrogate: non-finite model statistics")
		}
	}
	if len(p.FeatMean) != len(p.FeatStd) {
		return nil, fmt.Errorf("surrogate: standardization length mismatch")
	}

	m := &Model{byID: map[string]*group{}}
	m.gamma = clamp01(p.Gamma)
	m.interpErr, m.extrapErr, m.knnErr = p.InterpErr, p.ExtrapErr, p.KNNErr
	m.featMean, m.featStd = p.FeatMean, p.FeatStd
	for _, fg := range p.Groups {
		if fg.ID == "" || m.byID[fg.ID] != nil {
			return nil, fmt.Errorf("surrogate: duplicate or empty group id")
		}
		for _, v := range fg.Feat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("surrogate: non-finite group features")
			}
		}
		g := &group{id: fg.ID, bench: fg.Bench, feat: fg.Feat}
		for _, pt := range fg.Pts {
			if pt.Freq <= 0 || pt.Time < 0 {
				return nil, fmt.Errorf("surrogate: malformed group point")
			}
			i := sort.Search(len(g.pts), func(i int) bool { return g.pts[i].Freq >= pt.Freq })
			if i < len(g.pts) && g.pts[i].Freq == pt.Freq {
				return nil, fmt.Errorf("surrogate: duplicate group frequency")
			}
			g.pts = append(g.pts, point{})
			copy(g.pts[i+1:], g.pts[i:])
			g.pts[i] = pt
		}
		g.refit()
		m.byID[g.id] = g
		m.groups = append(m.groups, g)
	}
	sort.Slice(m.groups, func(i, j int) bool { return m.groups[i].id < m.groups[j].id })
	return m, nil
}

// ReadFile loads a model written by WriteFile.
func ReadFile(path string) (*Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: %w", err)
	}
	return Decode(raw)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
