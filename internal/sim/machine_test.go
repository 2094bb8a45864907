package sim

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
)

func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestMachineReuseMatchesFresh pins the reuse contract: a Machine reused
// across seeds — and across incompatible configs, which force a partial
// rebuild — produces byte-identical Results to fresh construction.
func TestMachineReuseMatchesFresh(t *testing.T) {
	seq := []Config{
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 1},
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 2},
		{Workload: diffProfile("lbm"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 3},
		// Mode change: device reuse is incompatible, machine must rebuild.
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 16, Seed: 4},
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 16, Seed: 5},
		// Prefetch change: the LLC is rebuilt, then reused again.
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 6, PrefetchDegree: 8},
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 7, Tracker: "mithril"},
	}
	var m Machine
	for i, cfg := range seq {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("step %d fresh: %v", i, err)
		}
		reused, err := m.Run(cfg)
		if err != nil {
			t.Fatalf("step %d reused: %v", i, err)
		}
		if string(resultJSON(t, reused)) != string(resultJSON(t, fresh)) {
			t.Fatalf("step %d (%s seed %d): machine-reuse Result diverges from fresh",
				i, cfg.Workload.Name, cfg.Seed)
		}
	}
}

// TestMachineDropsStateAfterPanic pins the poisoning contract: a run that
// panics mid-simulation leaves the machine dirty, and the next run builds
// fresh state rather than resuming from garbage.
func TestMachineDropsStateAfterPanic(t *testing.T) {
	var m Machine
	good := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000,
		Mode: dram.ModeAutoRFM, TH: 4, Seed: 11}
	if _, err := m.Run(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Fault = fault.Config{Seed: 3, PanicAfterActs: 50}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fault-injected run did not panic")
			}
		}()
		_, _ = m.Run(bad)
	}()
	fresh, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fresh) {
		t.Fatal("post-panic machine run diverges from fresh run")
	}
}

// TestMachineCancellation: a cancelled context fails the run with the
// context error without poisoning the machine — the next run on the same
// machine completes and matches a fresh run.
func TestMachineCancellation(t *testing.T) {
	cfg := diffConfigs()[0]
	cfg.Seed = 21
	var m Machine
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunCtx(cancelled, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(resultJSON(t, after)) != string(resultJSON(t, fresh)) {
		t.Fatal("post-cancel machine run diverges from fresh run")
	}
}

// warmStart runs cfg once on m (so every reusable allocation is sized) and
// then starts a second run of it, returning the run ready to dispatch.
func warmStart(t *testing.T, m *Machine, cfg Config) *runState {
	t.Helper()
	if _, err := m.Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.fillDefaults()
	rs, err := m.start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// stepN dispatches up to n events of rs, stopping early when its cores
// retire.
func stepN(rs *runState, n int) {
	q := rs.m.q
	for i := 0; i < n && rs.remaining > 0; i++ {
		if !q.Step() {
			return
		}
		rs.events++
	}
}

// TestMachineDispatchZeroAllocs guards the warm machine's dispatch loop:
// once a run is past its startup transients (pools filled, rings sized),
// stepping events allocates nothing — the steady-state per-event cost is
// pure compute, scratch-victim mitigation included.
func TestMachineDispatchZeroAllocs(t *testing.T) {
	cfg := diffConfigs()[0] // AutoRFM TH=4: mitigations fire constantly
	cfg.InstructionsPerCore = 60_000
	cfg.Seed = 7
	var m Machine
	rs := warmStart(t, &m, cfg)
	// Burn past startup transients (free lists growing to steady state,
	// MSHR table growth, queue ring sizing).
	stepN(rs, 120_000)
	allocs := testing.AllocsPerRun(5, func() { stepN(rs, 2_000) })
	if rs.remaining == 0 {
		t.Fatal("run retired before the measurement window; raise InstructionsPerCore")
	}
	if allocs != 0 {
		t.Fatalf("dispatch loop allocates %.1f objects per 2k events, want 0", allocs)
	}
}

// warmRunAllocCeiling bounds the objects a second Machine.Run of one config
// allocates end to end: validation, plugin resolution, the per-run
// controller and cores, and the dispatch of a 100k-instruction AutoRFM-4
// run (BenchmarkSimRun's config). The device pipelines, LLC, event queue
// and pre-warm scratch are all reused, so the count is ≈930 on go1.24;
// the allocating victim path and per-bank heap tables used to put it at
// ≈7.9k.
const warmRunAllocCeiling = 1100

// TestMachineWarmRunAllocs pins the warm-start cost: a repeated Run of the
// same config on one Machine stays under warmRunAllocCeiling objects.
func TestMachineWarmRunAllocs(t *testing.T) {
	cfg := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 100_000,
		Mode: dram.ModeAutoRFM, TH: 4, Seed: 1}
	var m Machine
	if _, err := m.Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := m.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Machine.Run allocates %.0f objects", allocs)
	if allocs > warmRunAllocCeiling {
		t.Fatalf("warm Machine.Run allocates %.0f objects, ceiling %d", allocs, warmRunAllocCeiling)
	}
}
