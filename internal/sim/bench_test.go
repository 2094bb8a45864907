package sim

import (
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/workload"
)

// benchConfig is the BenchmarkSimRun workload: one memory-intensive SPEC
// profile under AutoRFM-4, the configuration most experiment cells run.
// The instruction slice is long enough that steady-state event dispatch
// dominates setup (LLC pre-warm, PRNG seeding).
func benchConfig(b *testing.B) Config {
	b.Helper()
	p, err := workload.ByName("bwaves")
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Workload:            p,
		InstructionsPerCore: 100_000,
		Mode:                2, // dram.ModeAutoRFM (kept literal: import cycle-free)
		TH:                  4,
		Seed:                1,
	}
}

// BenchmarkSimRun measures whole-simulation throughput — the end-to-end
// cost every experiment cell pays — reporting events/sec as the headline
// custom metric. Compare runs with benchstat; see docs/PERF.md.
func BenchmarkSimRun(b *testing.B) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	var events, instrs int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		instrs += res.Instructions
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/sec")
}

// BenchmarkSimRunReuse is BenchmarkSimRun through one warm Machine, the way
// runner.Pool runs every job (it checks Machines out per worker), so the
// delta against BenchmarkSimRun is what per-run construction — event
// queue, LLC arrays, device pipelines, pre-warm scratch — costs when not
// amortized. Its distinct seeds make every run a pre-warm memo miss, so it
// is the miss path's check: the memo adds one 640KB save per run there,
// which should not lift its ns/op beyond noise.
func BenchmarkSimRunReuse(b *testing.B) {
	cfg := benchConfig(b)
	var m Machine
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1) // distinct seeds: real work, no cached result
		res, err := m.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// steadyConfigs is perfbench's steady job set: {lbm, mcf, conncomp, add} ×
// {RFM-4, AutoRFM-4, PRAC} at 250k instructions per core, seed 1. The
// event loop and the cpu, cache, memctrl and dram hot paths dominate it.
func steadyConfigs(b *testing.B) []Config {
	b.Helper()
	var cfgs []Config
	for _, name := range []string{"lbm", "mcf", "conncomp", "add"} {
		p, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []dram.Mode{dram.ModeRFM, dram.ModeAutoRFM, dram.ModePRAC} {
			cfgs = append(cfgs, Config{Workload: p, Mode: mode, TH: 4,
				InstructionsPerCore: 250_000, Seed: 1})
		}
	}
	return cfgs
}

// BenchmarkSteadyJobs runs the 12 steady jobs on one warm Machine per
// iteration and reports the host cost of one dispatched event (ns/event)
// and the dispatch rate (events/s) from Result.Events, which no engine
// change may move. It is the in-module check for a hot-path change:
// compare runs with benchstat (docs/PERF.md, "Per-event cost").
func BenchmarkSteadyJobs(b *testing.B) { benchJobs(b, steadyConfigs(b)) }

// shortConfigs is perfbench's short job set: all 21 workloads × {none,
// AutoRFM-4} at 2,000 instructions per core, seed 1. Per-job start cost
// and the memory controller's scheduling passes dominate it.
func shortConfigs() []Config {
	var cfgs []Config
	for _, p := range workload.Profiles() {
		for _, mode := range []dram.Mode{dram.ModeNone, dram.ModeAutoRFM} {
			cfgs = append(cfgs, Config{Workload: p, Mode: mode, TH: 4,
				InstructionsPerCore: 2_000, Seed: 1})
		}
	}
	return cfgs
}

// BenchmarkShortJobs is BenchmarkSteadyJobs on the 42 short jobs. Its
// ns/event includes each job's start, so it is the in-module proxy for
// perfbench's short workload.
func BenchmarkShortJobs(b *testing.B) { benchJobs(b, shortConfigs()) }

// benchJobs runs cfgs on one warm Machine per iteration and reports
// ns/event and events/s.
func benchJobs(b *testing.B, cfgs []Config) {
	var m Machine
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			res, err := m.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			events += res.Events
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
