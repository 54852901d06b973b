package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"depburst/internal/dacapo"
	"depburst/internal/energy"
	"depburst/internal/metrics"
	"depburst/internal/sampling"
	"depburst/internal/simcache"
	"depburst/internal/units"
)

// sampledRunner returns a runner with the default sampling policy and the
// given worker count.
func sampledRunner(workers int) *Runner {
	r := NewRunnerWorkers(workers)
	r.SetSampling(sampling.DefaultPolicy())
	return r
}

// TestSampledErrorBound is the accuracy contract of sampled simulation:
// each run reports an error bound, and the observed completion-time error
// against the full-detail run must stay inside it. CI sweeps the whole
// Figure 1 matrix through `depburst samplecheck`; this test keeps a small
// always-on slice of the property in the unit suite.
func TestSampledErrorBound(t *testing.T) {
	full := NewRunnerWorkers(1)
	sampled := sampledRunner(1)
	for _, name := range []string{"pmd.scale", "lusearch.fix"} {
		spec, err := dacapo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []int{1000, 4000} {
			ft := full.Truth(spec, units.Freq(f))
			st := sampled.Truth(spec, units.Freq(f))
			if ft.Sampling != nil {
				t.Fatalf("%s@%d: full-detail run carries a sampling report", name, f)
			}
			rep := st.Sampling
			if rep == nil {
				t.Fatalf("%s@%d: sampled run carries no sampling report", name, f)
			}
			if rep.FastQuanta == 0 {
				t.Errorf("%s@%d: sampled run never fast-forwarded", name, f)
			}
			p := rep.Policy
			if rep.ErrorBound <= 0 || rep.ErrorBound > p.SafetyFactor*p.Tolerance {
				t.Errorf("%s@%d: error bound %v outside (0, %v]",
					name, f, rep.ErrorBound, p.SafetyFactor*p.Tolerance)
			}
			relErr := math.Abs(float64(st.Time)-float64(ft.Time)) / float64(ft.Time)
			if relErr > rep.ErrorBound {
				t.Errorf("%s@%d: observed error %.3f exceeds reported bound %.3f (full %v, sampled %v)",
					name, f, relErr, rep.ErrorBound, ft.Time, st.Time)
			}
		}
	}
}

// renderSampledSet renders the truth-run-driven figures under the default
// sampling policy, exactly as `depburst -sample fig1 fig3a` would.
func renderSampledSet(r *Runner) string {
	var b strings.Builder
	r.Fig1().Fprint(&b)
	r.Fig3a().Fprint(&b)
	return b.String()
}

// TestSampledDeterminism extends the engine's byte-identity wall to sampled
// mode: the phase detector and fast-forward extrapolation live entirely
// inside one simulation's single-threaded event loop, so rendered output
// must be byte-identical between -j 1 and -j 8, across repeated runs, and
// between a cold disk cache and a warm one.
func TestSampledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	serial := renderSampledSet(sampledRunner(1))
	parallel := renderSampledSet(sampledRunner(8))
	if serial != parallel {
		d := firstDiff(serial, parallel)
		t.Fatalf("sampled output diverges between -j 1 and -j 8 at byte %d:\nserial:   %q\nparallel: %q",
			d, window(serial, d), window(parallel, d))
	}
	if len(serial) == 0 {
		t.Fatal("sampled experiment set rendered nothing")
	}

	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coldRunner := sampledRunner(1)
	coldRunner.SetDiskCache(st)
	cold := renderSampledSet(coldRunner)
	if cold != serial {
		t.Fatal("attaching a disk cache changed sampled output")
	}
	if st.Stats().Puts == 0 {
		t.Fatal("cold sampled render wrote no cache entries")
	}
	pre := st.Stats()
	warmRunner := sampledRunner(8)
	warmRunner.SetDiskCache(st)
	warm := renderSampledSet(warmRunner)
	if warm != cold {
		d := firstDiff(cold, warm)
		t.Fatalf("warm sampled render diverges from cold at byte %d:\ncold: %q\nwarm: %q",
			d, window(cold, d), window(warm, d))
	}
	post := st.Stats()
	if post.Hits == pre.Hits {
		t.Fatal("warm sampled render never hit the cache")
	}
	if post.Puts != pre.Puts {
		t.Fatalf("warm sampled render re-simulated %d runs", post.Puts-pre.Puts)
	}
}

// TestContentKeyAudit audits the one run key by reflection. Perturbing any
// leaf field of sim.Config (recursively) or of dacapo.Spec must give a run
// its own memo slot, and so must each energy.ManagerConfig field for a
// governed run and each of the sequential workloads; the Metrics handle
// and a disabled sampling policy must not. Slots are counted under a
// cancelled context, so nothing simulates: truth and sequential runs
// through their call sites, the machine and manager configurations
// through run itself (a truth run's spec overwrites the Base JVM sizing).
// A field added without reaching the key, or of a kind the audit does not
// cover, fails here.
func TestContentKeyAudit(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunnerWorkers(1)
	// open runs call on a copy of r and requires it to add want slots.
	open := func(name string, want int, call func(d *Runner)) {
		t.Helper()
		r.memo.mu.Lock()
		before := len(r.memo.m)
		r.memo.mu.Unlock()
		d := *r
		call(&d)
		r.memo.mu.Lock()
		got := len(r.memo.m) - before
		r.memo.mu.Unlock()
		if got != want {
			t.Errorf("%s: opened %d memo slots, want %d", name, got, want)
		}
	}
	truth := func(s dacapo.Spec) func(d *Runner) {
		return func(d *Runner) {
			if _, err := d.TruthCtx(ctx, s, 1000); !errors.Is(err, context.Canceled) {
				t.Fatalf("truth run under a cancelled context: %v", err)
			}
		}
	}

	mcfg := energy.DefaultManagerConfig(0.10)
	chip := func(d *Runner) {
		if _, _, err := d.run(ctx, "chip", d.Base, nil, nil, spec, mcfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("governed run under a cancelled context: %v", err)
		}
	}

	open("truth", 1, truth(spec))
	open("chip", 1, chip)
	open("Metrics", 0, func(d *Runner) {
		d.Base.Metrics = metrics.NewRegistry()
		chip(d)
	})
	open("disabled sampling policy", 0, func(d *Runner) {
		d.SetSampling(sampling.Policy{K: 99})
		truth(spec)(d)
	})
	open("default sampling policy", 1, func(d *Runner) {
		d.SetSampling(sampling.DefaultPolicy())
		truth(spec)(d)
	})
	perturbLeaves(t, "sim.Config", reflect.ValueOf(&r.Base).Elem(), func(path string) {
		if path != "sim.Config.Metrics" {
			open(path, 1, chip)
		}
	})
	s := spec
	perturbLeaves(t, "dacapo.Spec", reflect.ValueOf(&s).Elem(), func(path string) {
		open(path, 1, truth(s))
	})
	perturbLeaves(t, "energy.ManagerConfig", reflect.ValueOf(&mcfg).Elem(), func(path string) {
		open(path, 1, chip)
	})

	for _, w := range seqSuite() {
		open(w.name, 1, func(d *Runner) {
			if err := Cancelable(func() { d.WithContext(ctx).seqTruth(w, 1000) }); !errors.Is(err, context.Canceled) {
				t.Fatalf("sequential run under a cancelled context: %v", err)
			}
		})
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("the audit simulated %d runs", n)
	}
}

// perturbLeaves changes every leaf field under v in turn, calls visit with
// the field's path while the change is in place, then restores it. A
// pointer is a leaf it reports without changing; an unexported field (JSON
// keying skips it) or an uncovered kind fails the test.
func perturbLeaves(t *testing.T, path string, v reflect.Value, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: the content key cannot see it", path, f.Name)
				continue
			}
			perturbLeaves(t, path+"."+f.Name, v.Field(i), visit)
		}
		return
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), visit)
		}
		return
	case reflect.Pointer:
		visit(path)
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*1.5 + 1)
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s has kind %v the audit does not cover; extend it", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}
