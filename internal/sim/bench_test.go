package sim

import (
	"testing"

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
// amortized.
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
