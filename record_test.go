package depburst_test

// BENCH_suite.json is the repository's record of performance measurements:
// each record is one batch of paired runs of one command on a parent tree
// and on a change, alternated. README.md and DESIGN.md quote a measurement
// only by citing a metric of a record as [<id>/<metric>](BENCH_suite.json),
// and the paragraph holding the citation quotes both medians. The tests
// below hold the record and both documents to that.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const recordSchema = "depburst-bench/4"

type benchFile struct {
	Schema  string        `json:"schema"`
	Records []benchRecord `json:"records"`
}

// benchRecord is one batch: Command run Pairs times on the Parent and the
// Change commit on Host.
type benchRecord struct {
	ID      string        `json:"id"`
	PR      int           `json:"pr"`
	Command string        `json:"command"`
	Host    string        `json:"host"`
	Parent  string        `json:"parent"`
	Change  string        `json:"change"`
	Pairs   int           `json:"pairs"`
	Metrics []benchMetric `json:"metrics"`
}

// benchMetric is one metric of a batch. Wins counts the pairs the change
// won; it and the quartiles are absent where the batch did not report them.
type benchMetric struct {
	Name   string     `json:"name"`
	Unit   string     `json:"unit"`
	Wins   *int       `json:"wins"`
	Parent benchStats `json:"parent"`
	Change benchStats `json:"change"`
}

type benchStats struct {
	Median *float64 `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
}

type namedStats struct {
	side string
	benchStats
}

func (m benchMetric) sides() []namedStats {
	return []namedStats{{"parent", m.Parent}, {"change", m.Change}}
}

// metricIndex maps a record id and a metric name to the metric.
type metricIndex map[string]map[string]benchMetric

// decodeRecord decodes a record file strictly and checks every record.
func decodeRecord(raw []byte) (metricIndex, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("data after the record object")
	}
	if f.Schema != recordSchema {
		return nil, fmt.Errorf("schema %q, want %q", f.Schema, recordSchema)
	}
	if len(f.Records) == 0 {
		return nil, errors.New("no records")
	}
	idx := metricIndex{}
	for _, r := range f.Records {
		if err := checkRecord(r); err != nil {
			return nil, fmt.Errorf("record %q: %w", r.ID, err)
		}
		if idx[r.ID] != nil {
			return nil, fmt.Errorf("duplicate record id %q", r.ID)
		}
		idx[r.ID] = map[string]benchMetric{}
		for _, m := range r.Metrics {
			if _, dup := idx[r.ID][m.Name]; dup {
				return nil, fmt.Errorf("record %q: duplicate metric %q", r.ID, m.Name)
			}
			idx[r.ID][m.Name] = m
		}
	}
	return idx, nil
}

var recordID = regexp.MustCompile(`^[a-z0-9][a-z0-9.-]*$`)

func checkRecord(r benchRecord) error {
	switch {
	case !recordID.MatchString(r.ID):
		return errors.New("id must be lower-case letters, digits, dots and dashes")
	case r.PR <= 0 || r.Command == "" || r.Host == "" || r.Parent == "" || r.Change == "":
		return errors.New("pr, command, host, parent and change are required")
	case r.Pairs <= 0:
		return fmt.Errorf("pairs %d", r.Pairs)
	case len(r.Metrics) == 0:
		return errors.New("no metrics")
	}
	for _, m := range r.Metrics {
		if m.Name == "" || m.Unit == "" || strings.ContainsAny(m.Name, "[]()/") {
			return fmt.Errorf("metric %q: a name without brackets or slashes, and a unit, are required", m.Name)
		}
		if m.Wins != nil && (*m.Wins < 0 || *m.Wins > r.Pairs) {
			return fmt.Errorf("metric %s: %d wins in %d pairs", m.Name, *m.Wins, r.Pairs)
		}
		for _, s := range m.sides() {
			if err := s.check(); err != nil {
				return fmt.Errorf("metric %s, %s: %w", m.Name, s.side, err)
			}
		}
	}
	return nil
}

func (s benchStats) check() error {
	if s.Median == nil {
		return errors.New("no median")
	}
	if s.Q1 != nil && *s.Q1 > *s.Median {
		return fmt.Errorf("q1 %v above the median %v", *s.Q1, *s.Median)
	}
	if s.Q3 != nil && *s.Q3 < *s.Median {
		return fmt.Errorf("q3 %v below the median %v", *s.Q3, *s.Median)
	}
	return nil
}

var (
	citation = regexp.MustCompile(`\[([^\]/]+)/([^\]]+)\]\(BENCH_suite\.json\)`)
	// pairReport matches the phrases that report paired runs: "10
	// alternated pairs", "9/10 pairs", "5/5 wins".
	pairReport = regexp.MustCompile(`(?i)\b\d+(?:/\d+)?\s+(?:(?:alternated|alternating)\s+)?(?:pairs|wins)\b`)
	// number matches a decimal number, with or without thousands commas.
	number = regexp.MustCompile(`\d{1,3}(?:,\d{3})+(?:\.\d+)?|\d+(?:\.\d+)?`)
	// unitStart begins a paragraph inside a block: a list item or a table row.
	unitStart = regexp.MustCompile(`^\s*(?:[-*+]\s|\d+\.\s|\|)`)
)

// paragraph is a run of lines the checks treat as one: a block between
// blank lines, split again at each list item and table row.
type paragraph struct {
	line int // first line, 1-based
	text string
}

func paragraphs(doc string) []paragraph {
	var out []paragraph
	var cur []string
	start := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, paragraph{start + 1, strings.Join(cur, "\n")})
		}
		cur = nil
	}
	for i, l := range strings.Split(doc, "\n") {
		if strings.TrimSpace(l) == "" || unitStart.MatchString(l) {
			flush()
		}
		if strings.TrimSpace(l) == "" {
			continue
		}
		if len(cur) == 0 {
			start = i
		}
		cur = append(cur, l)
	}
	flush()
	return out
}

// quotes reports whether text prints v: a number in it, with at least two
// significant digits unless it is v exactly, that v rounds to at the
// number's own precision (67.06 is quoted by "67.1" and "67", not "68").
func quotes(text string, v float64) bool {
	for _, loc := range number.FindAllStringIndex(text, -1) {
		if loc[0] > 0 {
			if c := text[loc[0]-1]; c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
				continue // part of an identifier such as p50_ms or x86
			}
		}
		tok := strings.ReplaceAll(text[loc[0]:loc[1]], ",", "")
		got, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			continue
		}
		if got == v {
			return true
		}
		decimals := 0
		if i := strings.IndexByte(tok, '.'); i >= 0 {
			decimals = len(tok) - i - 1
		}
		if len(strings.TrimLeft(strings.ReplaceAll(tok, ".", ""), "0")) < 2 {
			continue
		}
		if math.Abs(got-v) <= 0.5*math.Pow(10, -float64(decimals))*(1+1e-9) {
			return true
		}
	}
	return false
}

// checkDoc checks every citation of the record in one document, that
// every paragraph reporting paired runs cites the record, and that the
// record's file name appears only inside citations.
func checkDoc(name, doc string, idx metricIndex) []error {
	var errs []error
	for _, p := range paragraphs(doc) {
		where := fmt.Sprintf("%s:%d", name, p.line)
		cites := citation.FindAllStringSubmatch(p.text, -1)
		prose := citation.ReplaceAllString(p.text, "")
		if strings.Contains(prose, "BENCH_suite.json") {
			errs = append(errs, fmt.Errorf("%s: BENCH_suite.json named outside a citation", where))
		}
		if len(cites) == 0 && pairReport.MatchString(prose) {
			errs = append(errs, fmt.Errorf("%s: reports paired runs (%q) but cites no record",
				where, pairReport.FindString(prose)))
		}
		for _, c := range cites {
			id, metric := c[1], c[2]
			m, ok := idx[id][metric]
			if !ok {
				errs = append(errs, fmt.Errorf("%s: citation %s/%s names no metric of the record", where, id, metric))
				continue
			}
			for _, s := range m.sides() {
				if !quotes(prose, *s.Median) {
					errs = append(errs, fmt.Errorf("%s: cites %s/%s but does not quote its %s median %v",
						where, id, metric, s.side, *s.Median))
				}
			}
		}
	}
	return errs
}

// TestPerformanceRecord checks BENCH_suite.json and every citation of it in
// README.md and DESIGN.md.
func TestPerformanceRecord(t *testing.T) {
	raw, err := os.ReadFile("BENCH_suite.json")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := decodeRecord(raw)
	if err != nil {
		t.Fatalf("BENCH_suite.json: %v", err)
	}
	cited := 0
	for _, name := range []string{"README.md", "DESIGN.md"} {
		doc, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		cited += len(citation.FindAllString(string(doc), -1))
		for _, err := range checkDoc(name, string(doc), idx) {
			t.Error(err)
		}
	}
	if cited == 0 {
		t.Error("README.md and DESIGN.md cite no measurement")
	}
}

// TestPerformanceRecordDefects seeds one defect at a time into a small
// record and document; each must be reported.
func TestPerformanceRecordDefects(t *testing.T) {
	const record = `{"schema": "depburst-bench/4", "records": [
	{"id": "r1", "pr": 1, "command": "c", "host": "h", "parent": "p", "change": "c", "pairs": 10, "metrics": [
		{"name": "p50_ms", "unit": "ms", "wins": 10, "parent": {"median": 67.06, "q1": 64.46, "q3": 70.56}, "change": {"median": 21.84}}]},
	{"id": "r2", "pr": 1, "command": "c", "host": "h", "parent": "p", "change": "c", "pairs": 1, "metrics": [
		{"name": "wall_s", "unit": "s", "parent": {"median": 9.61}, "change": {"median": 3.19}}]}]}`
	const doc = "Intro without numbers.\n\n" +
		"A pass took 21.8 ms against 67.1 ms\n(10 alternated pairs; [r1/p50_ms](BENCH_suite.json)).\n\n" +
		"- a list item: 9.6 to 3.2 s ([r2/wall_s](BENCH_suite.json))\n"
	idx, err := decodeRecord([]byte(record))
	if err != nil {
		t.Fatalf("clean record: %v", err)
	}
	if errs := checkDoc("doc", doc, idx); len(errs) > 0 {
		t.Fatalf("clean document: %v", errs)
	}
	for _, tc := range []struct{ name, from, to string }{
		{"q1 above the median", `"q1": 64.46`, `"q1": 67.5`},
		{"q3 below the median", `"q3": 70.56`, `"q3": 60`},
		{"duplicate id", `"id": "r2"`, `"id": "r1"`},
		{"more wins than pairs", `"wins": 10`, `"wins": 11`},
		{"missing median", `"change": {"median": 21.84}`, `"change": {}`},
		{"unknown field", `"pairs": 1,`, `"pairs": 1, "note": "x",`},
		{"wrong schema", `bench/4`, `bench/3`},
		{"trailing data", `]}]}`, `]}]} {}`},
	} {
		t.Run("record/"+tc.name, func(t *testing.T) {
			bad := strings.Replace(record, tc.from, tc.to, 1)
			if bad == record {
				t.Fatalf("seed %q not found", tc.from)
			}
			if _, err := decodeRecord([]byte(bad)); err == nil {
				t.Error("not reported")
			}
		})
	}
	for _, tc := range []struct{ name, from, to string }{
		{"digit changed in a median", "67.1 ms", "67.2 ms"},
		{"median not quoted", "21.8 ms against ", ""},
		{"citation deleted from a pairs paragraph", "; [r1/p50_ms](BENCH_suite.json)", ""},
		{"unknown id", "[r2/wall_s]", "[r3/wall_s]"},
		{"unknown metric", "[r2/wall_s]", "[r2/tail_ms]"},
		{"file named outside a citation", "Intro without numbers.", "See BENCH_suite.json."},
		{"wins reported without a citation", "Intro without numbers.", "It won 9/10 pairs."},
	} {
		t.Run("doc/"+tc.name, func(t *testing.T) {
			bad := strings.Replace(doc, tc.from, tc.to, 1)
			if bad == doc {
				t.Fatalf("seed %q not found", tc.from)
			}
			if errs := checkDoc("doc", bad, idx); len(errs) == 0 {
				t.Error("not reported")
			}
		})
	}
}
