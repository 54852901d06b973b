package experiments

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/sim"
	"depburst/internal/simcache"
	"depburst/internal/tracefmt"
)

// renderSet renders a representative experiment set — pure truth-run
// figures, governed runs and the multi-tenant co-runs — exactly as the CLI
// would print them.
func renderSet(r *Runner) string {
	var b strings.Builder
	r.Table1().Fprint(&b)
	r.Fig1().Fprint(&b)
	r.Fig4().Fprint(&b)
	r.Fig6().Fprint(&b)
	r.Consolidation(nil).Fprint(&b)
	return b.String()
}

// TestParallelDeterminism is the headline guarantee of the parallel
// experiment engine: the rendered tables must be byte-identical between a
// serial runner (-j 1) and a heavily parallel one (-j 8), because each
// simulation owns its engine, kernel and RNG, and rows are assembled
// serially from memoised results.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	type out struct {
		workers int
		text    string
	}
	outs := make([]out, 0, 2)
	for _, workers := range []int{1, 8} {
		outs = append(outs, out{workers, renderSet(NewRunnerWorkers(workers))})
	}
	if outs[0].text != outs[1].text {
		d := firstDiff(outs[0].text, outs[1].text)
		t.Fatalf("output diverges between -j %d and -j %d at byte %d:\nserial:   %q\nparallel: %q",
			outs[0].workers, outs[1].workers, d,
			window(outs[0].text, d), window(outs[1].text, d))
	}
	if len(outs[0].text) == 0 {
		t.Fatal("experiment set rendered nothing")
	}
}

// TestParallelDeterminismRepeated re-runs the parallel engine and checks
// run-to-run stability (goroutine interleaving must not leak into results).
func TestParallelDeterminismRepeated(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	render := func() string {
		var b strings.Builder
		r := NewRunnerWorkers(6)
		r.Fig1().Fprint(&b)
		r.SeedSensitivity([]uint64{1, 2}).Fprint(&b)
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("parallel runs diverge at byte %d", firstDiff(a, b))
	}
}

// renderObservability executes instrumented runs for a small benchmark set
// concurrently on the runner's pool and concatenates every exported
// observability document: the metrics JSON (with prediction-error telemetry
// attached) and the Chrome-trace timeline, plus one governed run.
func renderObservability(r *Runner) string {
	names := []string{"pmd.scale", "avrora"}
	out := make([]string, 2*len(names)+1)
	fns := make([]func(), 0, len(names)+1)
	for i, name := range names {
		i, name := i, name
		fns = append(fns, func() {
			spec, err := dacapo.ByName(name)
			if err != nil {
				panic(err)
			}
			res, reg := r.InstrumentedRun(spec, 1000, false, 0)
			r.ErrorBreakdown(spec, core.Options{Burst: true}, 1000, 4000, reg)
			var m, tl bytes.Buffer
			if err := reg.WriteJSON(&m); err != nil {
				panic(err)
			}
			if err := tracefmt.Write(&tl, res, reg); err != nil {
				panic(err)
			}
			out[2*i] = m.String()
			out[2*i+1] = tl.String()
		})
	}
	fns = append(fns, func() {
		spec, err := dacapo.ByName("pmd.scale")
		if err != nil {
			panic(err)
		}
		_, reg := r.InstrumentedRun(spec, 0, true, 0.10)
		var m bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			panic(err)
		}
		out[2*len(names)] = m.String()
	})
	r.FanOut(fns...)
	return strings.Join(out, "\n")
}

// TestObservabilityDeterminism extends the engine's byte-identity guarantee
// to the observability exports: metrics documents and timelines must be
// byte-identical between -j 1 and -j 8 and across repeated parallel runs,
// because each registry is filled inside one simulation's single-threaded
// event loop.
func TestObservabilityDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	serial := renderObservability(NewRunnerWorkers(1))
	parallel := renderObservability(NewRunnerWorkers(8))
	if serial != parallel {
		d := firstDiff(serial, parallel)
		t.Fatalf("observability exports diverge between -j 1 and -j 8 at byte %d:\nserial:   %q\nparallel: %q",
			d, window(serial, d), window(parallel, d))
	}
	again := renderObservability(NewRunnerWorkers(8))
	if parallel != again {
		t.Fatalf("repeated parallel observability exports diverge at byte %d", firstDiff(parallel, again))
	}
	for _, marker := range []string{
		`"dram_read_latency"`, `"gc_stw_spans"`, `"traceEvents"`,
		`"cpi_delta"`, `"pred_chosen_ps"`, `"dvfs_transitions"`,
	} {
		if !strings.Contains(serial, marker) {
			t.Errorf("exports missing %s", marker)
		}
	}
}

// cachedRunner returns a runner whose results persist in the given store.
func cachedRunner(workers int, st *simcache.Store) *Runner {
	r := NewRunnerWorkers(workers)
	r.SetDiskCache(st)
	return r
}

// damageCache bit-flips the tail byte of every entry in the store's
// directory, simulating on-disk corruption of the whole cache.
func damageCache(t *testing.T, st *simcache.Store) {
	t.Helper()
	des, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) != ".sce" {
			continue
		}
		path := filepath.Join(st.Dir(), de.Name())
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			t.Fatalf("reading %s: %v", path, err)
		}
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("cache directory held no entries to damage")
	}
}

// TestDiskCacheRoundTripAndFallback covers the persistent cache at the
// runner level: a warm runner serves the truth and governed families from
// disk with results deep-equal to the live run, and a damaged cache
// silently degrades to live simulation with identical results.
func TestDiskCacheRoundTripAndFallback(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	cold := cachedRunner(1, st)
	truthCold := cold.Truth(spec, 1000)
	managedCold, mgrCold := cold.ManagedRun(spec, 0.10)
	if mgrCold == nil {
		t.Fatal("cold managed run returned no manager")
	}
	if st.Stats().Puts == 0 {
		t.Fatal("cold runs wrote nothing to the store")
	}

	warm := cachedRunner(1, st)
	preHits := st.Stats().Hits
	truthWarm := warm.Truth(spec, 1000)
	managedWarm, mgrWarm := warm.ManagedRun(spec, 0.10)
	if st.Stats().Hits != preHits+2 {
		t.Fatalf("warm runs hit %d times, want 2", st.Stats().Hits-preHits)
	}
	if !reflect.DeepEqual(truthCold, truthWarm) {
		t.Error("warm truth result differs from cold")
	}
	if !reflect.DeepEqual(managedCold, managedWarm) {
		t.Error("warm managed result differs from cold")
	}
	if mgrWarm != nil {
		t.Error("cache-served managed run fabricated a manager")
	}

	damageCache(t, st)
	fallback := cachedRunner(1, st)
	truthLive := fallback.Truth(spec, 1000)
	if !reflect.DeepEqual(truthCold, truthLive) {
		t.Error("live fallback after corruption differs from original run")
	}
	// The damaged entry was purged and the fallback re-populated it.
	again := cachedRunner(1, st)
	if !reflect.DeepEqual(truthCold, again.Truth(spec, 1000)) {
		t.Error("re-populated cache serves a different result")
	}
}

// gobPayload is a cache payload in the layout entries had before sim.Result
// owned its encoding: the result, gob-encoded.
type gobPayload struct{ res *sim.Result }

func (p gobPayload) MarshalBinary() ([]byte, error) {
	var b bytes.Buffer
	err := gob.NewEncoder(&b).Encode(p.res)
	return b.Bytes(), err
}

// TestGobEntryDegradesToMiss covers version skew inside one key: every
// live entry of a populated cache is rewritten, under a valid frame and
// checksum, as the gob payload an older binary wrote. Reading one must be
// a miss that purges the entry and its sidecar and leaves the destination
// untouched; a Runner on the cache then re-simulates every run, renders
// the same table, and repopulates the cache.
func TestGobEntryDegradesToMiss(t *testing.T) {
	spec, err := dacapo.ByName("pmd.scale")
	if err != nil {
		t.Fatal(err)
	}
	suite := []dacapo.Spec{spec.Scaled(0.25)}
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, *Runner) {
		r := cachedRunner(1, st)
		r.SetSuite(suite)
		return r.Fig1().String(), r
	}
	want, _ := render()
	keys, err := st.Keys()
	if err != nil || len(keys) == 0 {
		t.Fatalf("cold render cached nothing (%v)", err)
	}
	for _, k := range keys {
		var res sim.Result
		if !st.Get(k, &res) {
			t.Fatalf("fresh entry %s missed", k)
		}
		if !st.HasMeta(k) {
			t.Fatalf("truth entry %s has no sidecar", k)
		}
		if err := st.Put(k, gobPayload{&res}); err != nil {
			t.Fatal(err)
		}
	}

	var out sim.Result
	if st.Get(keys[0], &out) {
		t.Fatal("gob entry served as a hit")
	}
	if !reflect.DeepEqual(out, sim.Result{}) {
		t.Error("rejected entry was partly decoded into the destination")
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), keys[0]+".sce")); !os.IsNotExist(err) {
		t.Error("gob entry not purged")
	}
	if st.HasMeta(keys[0]) {
		t.Error("gob entry's sidecar not purged")
	}

	got, r := render()
	if got != want {
		t.Fatalf("re-simulated render differs:\ngot  %q\nwant %q", got, want)
	}
	if n := r.Simulations(); n != int64(len(keys)) {
		t.Errorf("Runner re-simulated %d runs, want all %d", n, len(keys))
	}
	for _, k := range keys {
		var res sim.Result
		if !st.Get(k, &res) || !st.HasMeta(k) {
			t.Errorf("entry %s not repopulated with its sidecar", k)
		}
	}
}

// TestWarmCacheDeterminism is the headline guarantee of the persistent
// cache: rendering the experiment set against a warm cache — at any worker
// count — must be byte-identical to the cold run that populated it, because
// entries round-trip sim.Result exactly and row assembly never observes
// where a result came from.
func TestWarmCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration experiment")
	}
	st, err := simcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := renderSet(cachedRunner(1, st))
	if st.Stats().Puts == 0 {
		t.Fatal("cold render wrote no cache entries")
	}
	for _, workers := range []int{1, 8} {
		pre := st.Stats()
		warm := renderSet(cachedRunner(workers, st))
		if warm != cold {
			d := firstDiff(cold, warm)
			t.Fatalf("warm -j %d render diverges from cold at byte %d:\ncold: %q\nwarm: %q",
				workers, d, window(cold, d), window(warm, d))
		}
		post := st.Stats()
		if post.Hits == pre.Hits {
			t.Fatalf("warm -j %d render never hit the cache", workers)
		}
		if post.Puts != pre.Puts {
			t.Fatalf("warm -j %d render re-simulated %d runs", workers, post.Puts-pre.Puts)
		}
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func window(s string, at int) string {
	lo, hi := at-40, at+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
