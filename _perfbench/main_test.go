package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"

	"depburst/internal/dacapo"
)

func TestGeneratorDeterminism(t *testing.T) {
	specs := dacapo.Suite()
	render := func(seed uint64) string {
		held := heldOutFreqs(seed, specs)
		var b bytes.Buffer
		fmt.Fprintln(&b, held)
		for batch := 0; batch < 2; batch++ {
			plan := planBatch(seed, batch, specs, held)
			for _, r := range plan.reqs {
				fmt.Fprintf(&b, "%s %s\n", r.class, r.body)
			}
			for _, s := range plan.specs {
				fmt.Fprintf(&b, "%s items=%d\n", s.Name, s.Items)
			}
		}
		return b.String()
	}
	if render(1) != render(1) {
		t.Fatal("seed 1 generated two different request sequences")
	}
	if render(1) == render(2) {
		t.Fatal("seeds 1 and 2 generated the same request sequence")
	}

	plan := planBatch(1, 0, specs, heldOutFreqs(1, specs))
	count := map[string]int{}
	for _, r := range plan.reqs {
		count[r.class]++
	}
	want := map[string]int{classTier0: tier0PerBatch, classMemo: memoPerBench * len(specs), classCold: coldPerBatch, classSampled: coldPerBatch}
	if fmt.Sprint(count) != fmt.Sprint(want) {
		t.Errorf("batch composition %v, want %v", count, want)
	}
	names := map[string]bool{}
	for _, s := range plan.specs {
		if names[s.Name] {
			t.Errorf("custom spec name %s used twice", s.Name)
		}
		names[s.Name] = true
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 42; i++ {
		xs = append(xs, float64(i))
	}
	if v, pct := tail(xs); v != 32 || pct < 76 || pct > 77 {
		t.Errorf("tail of 1..42 = %v at p%.1f, want 32 (ten samples beyond it)", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of five samples = %v at p%.1f, want the maximum", v, pct)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// smokeEnv is a seconds-long configuration: three stock benchmarks at a
// twentieth of their work, no reference tables, private state.
func smokeEnv(t *testing.T) *env {
	e, err := newEnv("..", 1, 1, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(e.work) })
	e.state = t.TempDir()
	e.ref = nil
	for _, s := range dacapo.Suite()[:3] {
		e.suite = append(e.suite, s.Scaled(0.05))
	}
	return e
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmoke runs every workload, timed and traced, in the smoke
// configuration; each must pass its own checks and emit exactly the
// metrics BENCHMARK.json declares for its mode, with the declared units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				e := smokeEnv(t)
				var o *outcome
				var err error
				if trace == 1 {
					o, err = traced(e, name)
				} else {
					o, err = workloads[name](e)
				}
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || o.attempted == 0 {
					t.Errorf("%d of %d checks failed", o.failed, o.attempted)
				}
				var got []string
				for m, v := range o.metrics {
					got = append(got, m)
					if !metricName.MatchString(m) {
						t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m)
					}
					if unit, ok := want[m]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json for trace %d", m, trace)
					} else if unit != v.Unit {
						t.Errorf("metric %s has unit %s, BENCHMARK.json says %s", m, v.Unit, unit)
					}
				}
				if len(got) != len(want) {
					sort.Strings(got)
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d: %v", len(got), len(want), got)
				}
			})
		}
	}
}

// TestUsage: a bad invocation exits non-zero without printing a result.
func TestUsage(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-workload", "cold-suite", "-root", t.TempDir()}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("root without a checkout: exit %d, stdout %q", code, out.String())
	}
}
