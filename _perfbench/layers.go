package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"depburst/internal/core"
	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/sampling"
	"depburst/internal/server"
	"depburst/internal/sim"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// traceWarmPasses is how many warm passes the traced run times.
const traceWarmPasses = 8

// traced is the instrumented run. Whatever the workload, it exercises
// every layer: a cold pass builds the corpus, warm passes replay it, and a
// serve batch runs against a service trained on it. The named workload's
// own phase is also timed without spans; the difference is the tracing
// overhead. Spans go to .bench_build/trace/, and every count is compared
// with the previous traced run of the same code, workload and seed.
func traced(e *env, workload string) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	var plain, instrumented time.Duration // the workload's phase without and with spans

	// Cold phase. For cold-suite it runs twice: once without spans, and
	// the two passes' simulation counters must agree exactly.
	var firstCounts map[string]float64
	if workload == "cold-suite" {
		u, err := coldPass(e, 0, nil)
		if err != nil {
			return nil, err
		}
		plain = u.wall
		firstCounts = simCounts(u.jobs)
		os.RemoveAll(u.store.Dir())
	}
	cp, err := coldPass(e, 0, tr)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cp.store.Dir())
	checkColdPass(e, o, cp)
	counts := simCounts(cp.jobs)
	if firstCounts != nil {
		instrumented = cp.wall
		o.check(maps.Equal(firstCounts, counts), "simulation counters differ between two cold passes", e.log)
	}
	var hostNS float64
	var truths, governed []float64
	for _, j := range cp.jobs {
		if j.job.thr > 0 {
			governed = append(governed, ms(j.dur))
		} else {
			truths = append(truths, ms(j.dur))
		}
		hostNS += float64(j.dur.Nanoseconds())
	}
	o.set("sim.run_ms", median(truths), "ms")
	o.set("energy.governed_run_ms", median(governed), "ms")
	o.set("sim.host_ns_per_instr", hostNS/counts["cpu.instrs"], "ns")
	o.set("experiments.prewarm_s", cp.prewarm.Seconds(), "s")
	o.set("experiments.assemble_ms", ms(cp.assemble), "ms")
	o.set("report.render_ms", ms(cp.render), "ms")

	// Warm phase on the cold pass's cache.
	warm := func(tr *tracer) (time.Duration, int64) {
		var total time.Duration
		var sims int64
		for p := 0; p < traceWarmPasses; p++ {
			d, ok, n := warmPass(e, cp.store, p, cp.tables, tr)
			o.check(ok && n == 0, fmt.Sprintf("traced warm pass %d: tables match %v, %d simulations", p, ok, n), e.log)
			total += d
			sims += n
		}
		return total, sims
	}
	if workload == "warm-replay" {
		plain, _ = warm(nil)
	}
	d, sims := warm(tr)
	if workload == "warm-replay" {
		instrumented = d
	}
	counts["experiments.simulations"] = float64(sims)
	if err := probeStore(e, o, tr, cp); err != nil {
		return nil, err
	}

	// Serve phase against a service trained on the same corpus.
	s, err := startService(e, cp.store, cp.runner)
	if err != nil {
		return nil, err
	}
	batch := 0
	if workload == "serve-mixed" {
		plain = s.runBatch(0, o, nil).wall
		batch = 1
	}
	br := s.runBatch(batch, o, tr)
	if workload == "serve-mixed" {
		instrumented = br.wall
	}
	if err := s.stop(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	serveLayers(e, o, tr, s, br, counts)

	micro := microbenchmarks(cp.jobs[0].res.Epochs)
	for name, v := range micro {
		o.set(name, v, "ns")
	}
	reconcile(o, counts, micro, hostNS)

	st := cp.store.Stats()
	counts["simcache.hits"] = float64(st.Hits)
	counts["simcache.misses"] = float64(st.Misses)
	counts["simcache.puts"] = float64(st.Puts)
	counts["simcache.evictions"] = float64(st.Evictions)
	n, size, err := cp.store.Size()
	if err != nil {
		return nil, err
	}
	counts["simcache.entries"] = float64(n)
	counts["simcache.entry_kb"] = float64(size) / float64(n) / 1024
	for name, v := range counts {
		o.set(name, v, countUnit(name))
	}

	self := tr.selfTimes()
	for _, layer := range selfLayers {
		o.set("self."+layer+"_ms", ms(self[layer]), "ms")
	}
	o.set("trace_overhead_frac", instrumented.Seconds()/plain.Seconds()-1, "frac")
	counts["depburst_err_pct"] = cp.depburstErr // checked by the wall, reported by the timed runs
	countWall(e, o, workload, counts)
	path := filepath.Join(e.state, "trace", fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.notes["spans"] = path
	return o, nil
}

// simCounts sums the simulated work of a pass's runs: counts that depend
// only on the simulator's model, never on the host.
func simCounts(jobs []jobResult) map[string]float64 {
	var c struct {
		instrs                           int64
		l2, l3, dram                     uint64
		dramR, dramW, rowHits, rows      uint64
		epochs, quanta, gcs, transitions int
		alloc, copied                    int64
	}
	for _, j := range jobs {
		r := j.res
		t := r.TotalCounters()
		c.instrs += t.Instrs
		c.l2 += t.LoadsL2
		c.l3 += t.LoadsL3
		c.dram += t.LoadsDRAM
		c.dramR += r.DRAM.Reads
		c.dramW += r.DRAM.Writes
		c.rowHits += r.DRAM.RowHits
		c.rows += r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.Conflict
		c.epochs += len(r.Epochs)
		c.quanta += len(r.Samples)
		c.gcs += r.GC.MinorGCs + r.GC.MajorGCs
		c.alloc += r.GC.AllocBytes
		c.copied += r.GC.CopiedBytes
		if j.job.thr > 0 {
			c.transitions += r.Transitions
		}
	}
	l2 := c.l2 + c.l3 + c.dram // demand loads that missed L1
	l3 := c.l3 + c.dram
	return map[string]float64{
		"sim.runs":                float64(len(jobs)),
		"sim.quanta":              float64(c.quanta),
		"cpu.instrs":              float64(c.instrs),
		"cpu.loads_dram":          float64(c.dram),
		"mem.l2_accesses":         float64(l2),
		"mem.l2_hit_ratio":        float64(c.l2) / float64(l2),
		"mem.l3_accesses":         float64(l3),
		"mem.l3_hit_ratio":        float64(c.l3) / float64(l3),
		"mem.dram_reads":          float64(c.dramR),
		"mem.dram_writes":         float64(c.dramW),
		"mem.dram_row_hit_ratio":  float64(c.rowHits) / float64(c.rows),
		"kernel.epochs":           float64(c.epochs),
		"jvm.gcs":                 float64(c.gcs),
		"jvm.alloc_mb":            float64(c.alloc) / (1 << 20),
		"jvm.copied_mb":           float64(c.copied) / (1 << 20),
		"energy.dvfs_transitions": float64(c.transitions),
	}
}

func countUnit(name string) string {
	switch name {
	case "jvm.alloc_mb", "jvm.copied_mb":
		return "MB"
	case "simcache.entry_kb":
		return "KB"
	case "mem.l2_hit_ratio", "mem.l3_hit_ratio", "mem.dram_row_hit_ratio",
		"sampling.fast_frac", "sampling.error_bound", "surrogate.answer_ratio":
		return "frac"
	case "tier0_err_pct", "sampled_err_pct":
		return "%"
	}
	return "count"
}

// probeStore times, for every entry of the corpus, a raw read of its file
// against a full Get (the difference is checksum and decode), the
// conversion into a predictor observation, one DEP+BURST prediction, and a
// Put of the decoded result into a second store.
func probeStore(e *env, o *outcome, tr *tracer, cp *coldPassResult) error {
	keys, err := cp.store.Keys()
	if err != nil {
		return err
	}
	scratch, err := e.openStore("probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch.Dir())
	var reads, gets, observes, predicts, puts []float64
	model := core.NewDEPBurst()
	for _, k := range keys {
		// ".sce" is the store's entry file extension.
		path := filepath.Join(cp.store.Dir(), k+".sce")
		var readErr error
		reads = append(reads, ms(tr.timed("simcache.read", func() { _, readErr = os.ReadFile(path) })))
		var res sim.Result
		ok := false
		gets = append(gets, ms(tr.timed("simcache.get", func() { ok = cp.store.Get(k, &res) })))
		o.check(readErr == nil && ok, "corpus entry "+k+" unreadable", e.log)
		var obs *core.Observation
		observes = append(observes, us(tr.timed("experiments.observe", func() { obs = experiments.Observe(&res) })))
		predicts = append(predicts, us(tr.timed("core.predict", func() { model.Predict(obs, 4000) })))
		var putErr error
		puts = append(puts, ms(tr.timed("simcache.put", func() { putErr = scratch.Put(k, &res) })))
		o.check(putErr == nil, fmt.Sprintf("put of %s: %v", k, putErr), e.log)
	}
	o.set("simcache.read_ms", median(reads), "ms")
	o.set("simcache.get_ms", median(gets), "ms")
	o.set("simcache.put_ms", median(puts), "ms")
	o.set("experiments.observe_us", median(observes), "us")
	o.set("core.predict_us", median(predicts), "us")
	return nil
}

// serveLayers derives the serving layers' metrics from a traced batch:
// the server's own registry, client latency per class, in-process timings
// of request decoding and the surrogate, the sampled runs' reports read
// back from the cache, and the batch's accuracy figures.
func serveLayers(e *env, o *outcome, tr *tracer, s *service, br *batchResult, counts map[string]float64) {
	doc := s.reg.Export()
	for _, tier := range []string{server.TierSurrogate, server.TierSampled, server.TierFull} {
		var count uint64
		var mean float64
		for _, td := range doc.Tiers {
			if td.Tier == tier && td.Count > 0 {
				count, mean = td.Count, float64(td.SumNS)/float64(td.Count)/1e6
			}
		}
		counts["server.tier_count."+tier] = float64(count)
		o.set("server.tier_mean_ms."+tier, mean, "ms")
	}
	counts["server.coalesced"] = float64(doc.Coalesced)
	counts["server.rejected"] = float64(doc.Rejected)

	// Only tier 0 has enough requests per batch for a tail with ten
	// samples beyond it; the batch's overall tail (tail_ms) is the cold one.
	byClass := br.classLatencies()
	for _, class := range []string{classTier0, classMemo, classCold, classSampled} {
		o.set("client."+class+"_p50_ms", median(byClass[class]), "ms")
	}
	t, _ := tail(byClass[classTier0])
	o.set("client.tier0_tail_ms", t, "ms")
	counts["tier0_err_pct"] = meanPct(br.tier0Errs)
	counts["sampled_err_pct"] = maxPct(br.sampledErrs)

	byName := map[string]dacapo.Spec{}
	for _, sp := range e.specs() {
		byName[sp.Name] = sp
	}
	config := func(spec dacapo.Spec, f units.Freq) sim.Config {
		cfg := s.runner.Base
		cfg.Freq = f
		spec.Configure(&cfg)
		return cfg
	}
	var decodes, predicts, observes []float64
	online := surrogate.Train(s.samples) // a copy, so the timed Observe calls change nothing served
	for i, req := range br.plan.reqs {
		body := req.body
		decodes = append(decodes, us(tr.timed("server.decode", func() { server.DecodePredictRequest(bytes.NewReader(body), 1<<20) })))
		switch req.class {
		case classTier0:
			for _, f := range req.targets {
				cfg := config(byName[req.bench], units.Freq(f))
				predicts = append(predicts, us(tr.timed("surrogate.predict", func() { s.model.Predict(cfg, byName[req.bench]) })))
			}
		case classCold:
			var resp server.PredictResponse
			if json.Unmarshal(br.answers[i].body, &resp) != nil {
				continue
			}
			spec := br.plan.specs[req.pair]
			cfg := config(spec, 1000)
			observes = append(observes, us(tr.timed("surrogate.observe", func() { online.Observe(cfg, spec, units.Time(resp.BaseTimePS)) })))
		}
	}
	o.set("server.decode_us", median(decodes), "us")
	o.set("surrogate.predict_us", median(predicts), "us")
	o.set("surrogate.observe_us", median(observes), "us")
	o.set("surrogate.train_ms", ms(s.trainDur), "ms")
	counts["surrogate.answer_ratio"] = counts["server.tier_count."+server.TierSurrogate] / float64(s.sent[classTier0])

	// The sampled runs' own reports, read back from the cache the server
	// wrote them to: the Runner must not simulate anything.
	r := e.newRunner(s.store)
	r.SetSampling(sampling.DefaultPolicy())
	var fast, total units.Time
	var drops int
	var bound float64
	for _, req := range br.plan.reqs {
		if req.class != classSampled {
			continue
		}
		spec := br.plan.specs[req.pair]
		for _, f := range append([]int64{1000}, req.targets...) {
			rep := r.Truth(spec, units.Freq(f)).Sampling
			if rep == nil {
				continue
			}
			fast += rep.FastTime
			total += rep.TotalTime
			drops += rep.Drops
			bound = max(bound, rep.ErrorBound)
		}
	}
	o.check(r.Simulations() == 0, fmt.Sprintf("reading the sampled runs back simulated %d runs", r.Simulations()), e.log)
	counts["sampling.fast_frac"] = float64(fast) / float64(total)
	counts["sampling.drops"] = float64(drops)
	counts["sampling.error_bound"] = bound
}

// reconcile compares the simulations' measured host time with what the
// microbenchmarks account for: blocks (instructions / 400) × cpu.block_ns,
// L2 and L3 accesses × mem.cache_access_ns, DRAM accesses ×
// mem.dram_access_ns, epochs × kernel.futex_roundtrip_ns and quanta ×
// event.step_ns. The terms overlap (a block's cost includes its own four
// memory accesses), so the fraction is a consistency figure for comparing
// commits, not a decomposition.
func reconcile(o *outcome, c, micro map[string]float64, hostNS float64) {
	attributed := c["cpu.instrs"]/blockInstrs*micro["cpu.block_ns"] +
		(c["mem.l2_accesses"]+c["mem.l3_accesses"])*micro["mem.cache_access_ns"] +
		(c["mem.dram_reads"]+c["mem.dram_writes"])*micro["mem.dram_access_ns"] +
		c["kernel.epochs"]*micro["kernel.futex_roundtrip_ns"] +
		c["sim.quanta"]*micro["event.step_ns"]
	o.set("sim.attributed_frac", attributed/hostNS, "frac")
	o.set("sim.residual_s", (hostNS-attributed)/1e9, "s")
}

// countWall checks that every count repeats exactly: the first traced run
// of this source, workload and seed records them under .bench_build, and
// every later one must reproduce them.
func countWall(e *env, o *outcome, workload string, counts map[string]float64) {
	name := fmt.Sprintf("%s-%s-seed%d.json", sourceDigest(e.root), workload, e.seed)
	path := filepath.Join(e.state, "counts", name)
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err == nil {
			for k, v := range counts {
				o.check(prev[k] == v, fmt.Sprintf("count %s = %v, an earlier run measured %v", k, v, prev[k]), e.log)
			}
			o.notes["count_wall"] = "compared with " + path
			return
		}
	}
	raw, err := json.Marshal(counts)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	o.check(err == nil, fmt.Sprintf("recording counts: %v", err), e.log)
	o.notes["count_wall"] = "recorded " + path
}
