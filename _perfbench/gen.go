package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"depburst/internal/dacapo"
	"depburst/internal/sampling"
	"depburst/internal/server"
	"depburst/internal/units"
)

// Request classes of the serve-mixed traffic.
const (
	classTier0   = "tier0"   // stock benchmark, dep+burst, held-out targets: the surrogate answers
	classMemo    = "memo"    // stock benchmark, all six models, actual: memo and disk-cache replay
	classCold    = "cold"    // custom spec, actual: full-detail simulation
	classSampled = "sampled" // the same custom spec, actual, sampled simulation
)

// Batch composition: tier-0 requests dominate, as in production traffic;
// two memo requests per stock benchmark; and enough cold requests that the
// batch's tail percentile (ten samples beyond it) falls among them.
const (
	tier0PerBatch = 60
	memoPerBench  = 2
	coldPerBatch  = 12 // and as many sampled requests on the same specs
)

// Custom specs are the suite's first benchmark (xalan in the stock suite)
// scaled by coldScale ± 5%: one shape of work, so the cold class is
// homogeneous and the batch's tail, which falls in it, is stable.
const coldScale = 0.2

var allModels = []string{"mcrit", "mcrit+burst", "coop", "coop+burst", "dep", "dep+burst"}

// Memo target sets always include 4 GHz, so every batch reproduces the
// Figure 1 DEP+BURST error at 4 GHz through the service.
var memoTargets = [][]int64{{4000}, {2000, 4000}, {3000, 4000}, {2000, 3000, 4000}}

// plannedReq is one generated request and what its answer is checked
// against.
type plannedReq struct {
	class   string
	bench   string // stock benchmark or custom spec name
	targets []int64
	pair    int // cold and sampled: index of the custom spec in the batch
	body    []byte
}

// batchPlan is one batch of the seeded request sequence.
type batchPlan struct {
	reqs  []plannedReq
	specs []dacapo.Spec // custom specs, by pair index
}

// heldOutGrid is the 125 MHz DVFS grid strictly between the training
// frequencies (1, 2, 3 and 4 GHz).
func heldOutGrid() []units.Freq {
	var fs []units.Freq
	for f := units.Freq(1125); f < 4000; f += 125 {
		if f%1000 != 0 {
			fs = append(fs, f)
		}
	}
	return fs
}

// heldOutFreqs picks, per stock benchmark, the two held-out frequencies
// tier-0 requests target. Their truths are simulated at set-up by a Runner
// the server never sees.
func heldOutFreqs(seed uint64, specs []dacapo.Spec) map[string][]units.Freq {
	rng := rand.New(rand.NewPCG(seed, 0x4e1d))
	grid := heldOutGrid()
	out := map[string][]units.Freq{}
	for _, s := range specs {
		p := rng.Perm(len(grid))
		a, b := grid[p[0]], grid[p[1]]
		if a > b {
			a, b = b, a
		}
		out[s.Name] = []units.Freq{a, b}
	}
	return out
}

// planBatch generates batch number b of the request sequence for seed.
// The same (seed, b) always yields the same requests in the same order.
func planBatch(seed uint64, b int, specs []dacapo.Spec, held map[string][]units.Freq) batchPlan {
	rng := rand.New(rand.NewPCG(seed, 0xba7c<<32|uint64(b)))
	var plan batchPlan
	add := func(class, bench string, targets []int64, pair int, req server.PredictRequest) {
		req.BaseMHz = 1000
		req.TargetsMHz = targets
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // requests are plain data
		}
		plan.reqs = append(plan.reqs, plannedReq{class: class, bench: bench, targets: targets, pair: pair, body: body})
	}

	for i := 0; i < tier0PerBatch; i++ {
		s := specs[rng.IntN(len(specs))]
		h := held[s.Name]
		var targets []int64
		switch rng.IntN(3) {
		case 0:
			targets = []int64{int64(h[0])}
		case 1:
			targets = []int64{int64(h[1])}
		default:
			targets = []int64{int64(h[0]), int64(h[1])}
		}
		add(classTier0, s.Name, targets, -1, server.PredictRequest{Bench: s.Name, Models: []string{"dep+burst"}})
	}
	// A benchmark's memo requests within one batch use distinct target
	// sets, so no two identical requests are ever in flight together: the
	// server's coalescing count stays 0 and repeats exactly.
	for _, s := range specs {
		for _, j := range rng.Perm(len(memoTargets))[:memoPerBench] {
			add(classMemo, s.Name, memoTargets[j], -1, server.PredictRequest{Bench: s.Name, Models: allModels, Actual: true})
		}
	}
	for i := 0; i < coldPerBatch; i++ {
		spec := specs[0].Scaled(coldScale * (0.95 + 0.1*rng.Float64()))
		spec.Name = fmt.Sprintf("%s~%d.%d.%d", specs[0].Name, seed, b, i)
		plan.specs = append(plan.specs, spec)
		p := rng.Perm(3)[:2]
		targets := []int64{int64(2000 + 1000*min(p[0], p[1])), int64(2000 + 1000*max(p[0], p[1]))}
		add(classCold, spec.Name, targets, i, server.PredictRequest{Spec: &spec, Actual: true})
		add(classSampled, spec.Name, targets, i, server.PredictRequest{Spec: &spec, Actual: true, Sampling: &sampling.Policy{Enabled: true}})
	}
	rng.Shuffle(len(plan.reqs), func(i, j int) { plan.reqs[i], plan.reqs[j] = plan.reqs[j], plan.reqs[i] })
	return plan
}
