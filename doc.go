// Package depburst is a from-scratch reproduction of "DVFS Performance
// Prediction for Managed Multithreaded Applications" (Akram, Sartor,
// Eeckhout — ISPASS 2016).
//
// The repository contains:
//
//   - internal/core: the paper's contribution — the DEP+BURST DVFS
//     performance predictor and the baselines it is compared against
//     (M+CRIT, COOP; CRIT / Leading Loads / Stall Time engines).
//   - internal/{cpu,mem,event,units}: a multicore timing simulator (the
//     Sniper substitute) — interval-model out-of-order cores, caches,
//     banked DRAM.
//   - internal/{kernel,jvm}: the OS and managed-runtime substrates —
//     futex-based scheduling with epoch recording, and a JVM-like heap
//     with TLAB allocation, zero-initialisation store bursts and a
//     stop-the-world parallel copying collector.
//   - internal/dacapo: synthetic analogues of the seven DaCapo benchmarks.
//   - internal/{power,energy}: the McPAT-like power model and the
//     DVFS energy manager of the paper's §VI case study.
//   - internal/experiments: one harness per table/figure of the paper,
//     plus ablations and extensions (per-core DVFS, feedback control,
//     consolidation, regression baseline).
//   - internal/obsio, internal/tracefmt: observation record/replay (JSON)
//     and Chrome trace_event run timelines (a governed run's is the
//     paper's Figure 5 view: frequency per quantum, GC pauses, per-core
//     activity).
//
// The benchmarks in bench_test.go regenerate every table and figure; the
// cmd/depburst CLI prints them. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package depburst
