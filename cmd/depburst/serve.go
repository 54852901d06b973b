package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"depburst/internal/dacapo"
	"depburst/internal/experiments"
	"depburst/internal/metrics"
	"depburst/internal/server"
	"depburst/internal/surrogate"
	"depburst/internal/units"
)

// cmdServe boots the prediction service. The global -j and -cache flags
// (already applied to r) size the simulation pool and the persistent result
// store; serve's own flags shape the HTTP layer.
func cmdServe(r *experiments.Runner, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address")
	maxQueue := fs.Int("max-queue", 16, "predict requests queued before 429")
	workers := fs.Int("request-workers", 2, "concurrently-executing predict requests")
	timeout := fs.Duration("timeout", 2*time.Minute, "per-request deadline (0 disables)")
	step := fs.Int("step", 500, "fig7 static-sweep step in MHz (requests may override with ?step=)")
	suite := fs.String("suite", "", "custom suite JSON replacing the stock benchmarks (see 'depburst suite')")
	tier0 := fs.Bool("surrogate", false, "serve the surrogate tier, trained at boot from the -cache corpus (empty corpus: starts cold, learns online from fallback truths)")
	fs.Parse(args)

	if *suite != "" {
		specs, err := dacapo.ReadSpecsFile(*suite)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r.SetSuite(specs)
	}

	var model *surrogate.Model
	if *tier0 {
		var err error
		if model, err = loadModel(r); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sum := model.Summarize()
		fmt.Printf("depburst serve: surrogate tier on (%d samples, %d groups)\n", sum.Points, sum.Groups)
	}

	srv, err := server.New(server.Config{
		Runner:    r,
		Workers:   *workers,
		MaxQueue:  *maxQueue,
		Timeout:   *timeout,
		Step:      units.Freq(*step),
		Metrics:   metrics.NewServerRegistry(),
		Surrogate: model,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("depburst serve: listening on http://%s (workers %d, queue %d)\n",
		ln.Addr(), *workers, *maxQueue)
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("depburst serve: drained, bye")
}

// loadModel trains the surrogate tier from r's disk-cache corpus. Without
// a cache, or with one that holds no full-detail truths, the model starts
// empty and learns online from the truths the slower tiers compute.
func loadModel(r *experiments.Runner) (*surrogate.Model, error) {
	var samples []surrogate.Sample
	if st := r.DiskCache(); st != nil {
		var err error
		if samples, err = surrogate.Scan(st); err != nil {
			return nil, err
		}
	}
	return surrogate.Train(samples), nil
}

// cmdLoadtest drives a running server and asserts the latency/error
// contract: zero 5xx, and (by default) a warm p99 under the bound.
func cmdLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "server address")
	rps := fs.Int("rps", 50, "request rate")
	duration := fs.Duration("duration", 5*time.Second, "run length")
	bench := fs.String("bench", "pmd.scale", "benchmark to predict")
	p99 := fs.Float64("p99-ms", 250, "fail when the warm p99 exceeds this (0 disables)")
	out := fs.String("o", "", "merge the report into this BENCH_suite.json-style file under key \"loadtest\"")
	fs.Parse(args)

	body := []byte(fmt.Sprintf(
		`{"bench":%q,"base_mhz":1000,"targets_mhz":[2000,4000],"models":["dep+burst"]}`, *bench))
	base := "http://" + *addr

	// Warm the cache first so the measured run reflects steady state; the
	// cold request is unbounded only by the simulation itself.
	warm, err := server.RunLoad(context.Background(), server.LoadOptions{
		BaseURL: base, Body: body, RPS: 2, Duration: 1 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if warm.OK == 0 {
		fmt.Fprintf(os.Stderr, "loadtest: warmup got no successful response from %s\n", base)
		os.Exit(1)
	}

	rep, err := server.RunLoad(context.Background(), server.LoadOptions{
		BaseURL: base, Body: body, RPS: *rps, Duration: *duration,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.WriteJSON(os.Stdout)
	printTierSplit(base)

	if *out != "" {
		if err := mergeLoadReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("loadtest       -> %s (key \"loadtest\")\n", *out)
	}

	fail := false
	if rep.Errors5xx > 0 || rep.NetErrors > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL: %d 5xx, %d transport errors\n", rep.Errors5xx, rep.NetErrors)
		fail = true
	}
	if *p99 > 0 && rep.P99Ms > *p99 {
		fmt.Fprintf(os.Stderr, "loadtest: FAIL: p99 %.1fms exceeds bound %.1fms\n", rep.P99Ms, *p99)
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Printf("loadtest: ok (%d requests, p99 %.1fms, zero 5xx)\n", rep.Requests, rep.P99Ms)
}

// printTierSplit reports the server's per-tier predict counts when the
// metrics endpoint exposes them. Best effort: a server without metrics (or
// an older one without tiers) just prints nothing.
func printTierSplit(base string) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var doc struct {
		Tiers []struct {
			Tier  string `json:"tier"`
			Count uint64 `json:"count"`
		} `json:"tiers"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil || len(doc.Tiers) == 0 {
		return
	}
	var total uint64
	for _, t := range doc.Tiers {
		total += t.Count
	}
	parts := make([]string, 0, len(doc.Tiers))
	for _, t := range doc.Tiers {
		parts = append(parts, fmt.Sprintf("%s %d (%.0f%%)", t.Tier, t.Count, 100*float64(t.Count)/float64(total)))
	}
	fmt.Printf("tiers: %s\n", strings.Join(parts, ", "))
}
