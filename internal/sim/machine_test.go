package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/mitigation"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// memoHas reports whether m holds a saved pre-warm for a run of cfg.
func memoHas(m *Machine, cfg Config) bool {
	cfg.fillDefaults()
	k := newWarmKey(&cfg, cfg.llcConfig())
	for _, e := range m.memo {
		if e.key == k {
			return true
		}
	}
	return false
}

// TestMachineReuseMatchesFresh pins the reuse contract: a Machine reused
// across seeds — and across incompatible configs, which force a partial
// rebuild — produces byte-identical Results to fresh construction, whether
// its LLC pre-warm is computed or rolled back from the memo. Each step also
// states whether its pre-warm is a memo hit.
func TestMachineReuseMatchesFresh(t *testing.T) {
	type step struct {
		cfg Config
		hit bool
	}
	run := func(name string, mode dram.Mode, seed uint64) Config {
		return Config{Workload: diffProfile(name), InstructionsPerCore: 10_000, Mode: mode, TH: 4, Seed: seed}
	}
	seq := []step{
		{run("bwaves", dram.ModeAutoRFM, 1), false},
		{run("bwaves", dram.ModeAutoRFM, 2), false},
		{run("lbm", dram.ModeAutoRFM, 3), false},
		// Mode changes reuse the device. PRAC runs leave raised counters
		// behind, which an RFM run must neither see nor touch and the next
		// PRAC run must find cleared: at ETH 2 a counter left at 1 would
		// raise an ABO the fresh run does not.
		{Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 16, Seed: 4}, false},
		{Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 16, Seed: 5}, false},
		{run("lbm", dram.ModeRFM, 12), false},
		{Config{Workload: diffProfile("lbm"), InstructionsPerCore: 10_000, Mode: dram.ModePRAC, PRACETh: 2, Seed: 13}, false},
		{run("bwaves", dram.ModeNone, 14), false},
		{run("bwaves", dram.ModeAutoRFM, 15), false},
		{run("bwaves", dram.ModeNone, 16), false},
		// Prefetch change: the LLC is kept, and only its degree set.
		{Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 6, PrefetchDegree: 8}, false},
		{Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 7, Tracker: "mithril"}, false},
		// A key revisited after other keys, under another mechanism.
		{run("bwaves", dram.ModeRFM, 2), true},
		// fotonik3d shares bwaves' footprint and write fraction, so its
		// pre-warm is bwaves'.
		{run("fotonik3d", dram.ModeAutoRFM, 1), true},
		// lbm shares the footprint but not the write fraction: a miss.
		{run("lbm", dram.ModeAutoRFM, 1), false},
		// A hit under another prefetch degree.
		{Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000, Mode: dram.ModeAutoRFM, TH: 4, Seed: 5, PrefetchDegree: 16}, true},
	}
	// warmMemoCap+1 new keys evict the first of them; the last stays.
	for i := uint64(0); i <= warmMemoCap; i++ {
		cfg := run("mcf", dram.ModeAutoRFM, 100+i)
		cfg.InstructionsPerCore = 2_000
		seq = append(seq, step{cfg, false})
	}
	first, last := seq[len(seq)-warmMemoCap-1], seq[len(seq)-1]
	seq = append(seq, step{first.cfg, false}, step{last.cfg, true})
	// perfbench's short jobs over more keys than the memo holds: each key
	// misses under no mechanism and hits under AutoRFM, so misses pre-warm
	// over the working copy of the key before, and entries the LLC runs on
	// are evicted. A second pass over the newest keys hits throughout, each
	// rolling back the few sets a 2k-instruction run changed.
	short := func(mode dram.Mode, seed uint64) Config {
		name := []string{"mcf", "lbm", "bwaves"}[seed%3]
		return Config{Workload: diffProfile(name), InstructionsPerCore: 2_000, Mode: mode, TH: 4, Seed: seed}
	}
	const keys = warmMemoCap + 4
	for i := uint64(0); i < keys; i++ {
		seq = append(seq, step{short(dram.ModeNone, 200+i), false}, step{short(dram.ModeAutoRFM, 200+i), true})
	}
	for i := uint64(keys - warmMemoCap/2); i < keys; i++ {
		seq = append(seq, step{short(dram.ModeNone, 200+i), true}, step{short(dram.ModeAutoRFM, 200+i), true})
	}

	var m Machine
	for i, st := range seq {
		cfg := st.cfg
		if hit := memoHas(&m, cfg); hit != st.hit {
			t.Fatalf("step %d (%s seed %d): pre-warm memo hit = %v, want %v",
				i, cfg.Workload.Name, cfg.Seed, hit, st.hit)
		}
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
		if len(m.memo) > warmMemoCap {
			t.Fatalf("step %d: memo holds %d pre-warms, cap %d", i, len(m.memo), warmMemoCap)
		}
	}

	// Prefetch degrees and mappings in alternation at two seeds: the LLC
	// survives every degree, and the mapper is rebuilt only for another
	// mapping or seed. Only the first run of each seed pre-warms.
	llc := m.llc
	var prevMap string
	var prevSeed uint64
	for _, mapName := range []string{"amd-zen", "rubix", "page-in-row"} {
		for _, pf := range []int{-1, 0, 8} {
			for _, seed := range []uint64{31, 32} {
				cfg := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000,
					Mode: dram.ModeAutoRFM, TH: 4, Seed: seed, Mapping: mapName, PrefetchDegree: pf}
				wantHit := mapName != "amd-zen" || pf != -1
				if hit := memoHas(&m, cfg); hit != wantHit {
					t.Fatalf("%s pf %d seed %d: pre-warm memo hit = %v, want %v", mapName, pf, seed, hit, wantHit)
				}
				mapper := m.mapper
				fresh, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reused, err := m.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if string(resultJSON(t, reused)) != string(resultJSON(t, fresh)) {
					t.Fatalf("%s pf %d seed %d: machine-reuse Result diverges from fresh", mapName, pf, seed)
				}
				if m.llc != llc {
					t.Fatalf("%s pf %d seed %d: the LLC was rebuilt", mapName, pf, seed)
				}
				if kept := mapName == prevMap && seed == prevSeed; kept != (m.mapper == mapper) {
					t.Fatalf("%s pf %d seed %d: mapper kept = %v, want %v", mapName, pf, seed, !kept, kept)
				}
				prevMap, prevSeed = mapName, seed
			}
		}
	}
}

// TestMachineDropsStateAfterPanic pins the poisoning contract: a run that
// panics mid-simulation leaves the machine dirty, and the next run builds
// fresh state rather than resuming from garbage — except for the pre-warm
// memo. The panicking run is itself a memo hit, so it dies halfway through
// changing that entry's working copy; the LLC marked every set before
// changing it, so the memo hits that follow roll the copy back. The runs
// die in the tracker (a fault panic after some ACTs) and in a core's
// advance pass (a stream that panics), which must not leave a reused core
// marked as running, so that it never dispatches again.
func TestMachineDropsStateAfterPanic(t *testing.T) {
	var m Machine
	good := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 10_000,
		Mode: dram.ModeAutoRFM, TH: 4, Seed: 11}
	none := good
	none.Mode = dram.ModeNone
	if _, err := m.Run(good); err != nil {
		t.Fatal(err)
	}
	for _, acts := range []int{5, 60, -300} {
		bad := good
		if acts > 0 {
			bad.Fault = fault.Config{Seed: 3, PanicAfterActs: acts}
		} else {
			bad.NewStream = func(core int) cpu.Stream {
				return &panicStream{inner: workload.NewGenerator(good.Workload, core, good.Seed^0xc0de), left: -acts}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("run set to panic after %d ACTs or records did not panic", acts)
				}
			}()
			_, _ = m.Run(bad)
		}()
		// The memo was written before the panic and is kept: the next runs
		// roll its pre-warm back onto the rebuilt LLC.
		for _, cfg := range []Config{good, none} {
			if !memoHas(&m, cfg) {
				t.Fatal("the panicked run dropped the pre-warm memo")
			}
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A core left marked as running never dispatches, and the REF
			// stream keeps the queue from draining: bound the run.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			after, err := m.RunCtx(ctx, cfg)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, fresh) {
				t.Fatalf("%v run after a panic at %d ACTs or records diverges from a fresh run", cfg.Mode, acts)
			}
		}
	}
}

// TestMachineCyclesEveryPlugin pins the in-place rebuild of each bank's
// tracker and policy, and the reuse of cores: one
// Machine runs every registered tracker × policy × mode, plus a
// fault-injected and a NewTracker-hook config, twice each in a shuffled
// order, so every built-in type is rebuilt over itself and over the
// others. Each Result equals a fresh Run's byte for byte.
func TestMachineCyclesEveryPlugin(t *testing.T) {
	var cfgs []Config
	modes := []dram.Mode{dram.ModeNone, dram.ModeRFM, dram.ModeAutoRFM, dram.ModePRAC}
	for _, trk := range tracker.Names() {
		for _, pol := range mitigation.Names() {
			for _, mode := range modes {
				cfgs = append(cfgs, Config{Tracker: trk, Policy: pol, Mode: mode})
			}
		}
	}
	cfgs = append(cfgs,
		Config{Mode: dram.ModeAutoRFM, Fault: fault.Config{Seed: 5, TrackerBitFlipProb: 0.05, DropMitigationProb: 0.1}},
		Config{Mode: dram.ModeRFM, NewTracker: directTrackers["pride"]})
	workloads := []string{"mcf", "lbm", "bwaves"}
	fresh := make([][]byte, len(cfgs))
	for i := range cfgs {
		cfgs[i].Workload = diffProfile(workloads[i%len(workloads)])
		cfgs[i].InstructionsPerCore = 2_000
		cfgs[i].TH = 4
		cfgs[i].PRACETh = 8
		cfgs[i].Seed = uint64(1 + i%2)
		res, err := Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = resultJSON(t, res)
	}
	order := rand.New(rand.NewPCG(1, 2))
	var m Machine
	for pass := 0; pass < 2; pass++ {
		for _, i := range order.Perm(len(cfgs)) {
			res, err := m.Run(cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, res), fresh[i]) {
				c := cfgs[i]
				t.Fatalf("pass %d: %s/%s/%v run on the reused machine diverges from a fresh run",
					pass, c.Tracker, c.Policy, c.Mode)
			}
		}
	}
}

// TestMachineSelectorMemo pins the machine's memo of resolved selectors.
// It is keyed by TH as well: parfm's buffer is TH entries, so the same
// selectors at TH 2^40 are an error, not a hit. Errors are never kept, the
// memo holds at most selectorMemoCap pairs, and a run that panics drops it.
func TestMachineSelectorMemo(t *testing.T) {
	var m Machine
	cfg := Config{Workload: diffProfile("mcf"), InstructionsPerCore: 2_000,
		Mode: dram.ModeAutoRFM, Tracker: "parfm", TH: 4, Seed: 1}
	if _, err := m.Run(cfg); err != nil {
		t.Fatal(err)
	}
	huge := cfg
	huge.TH = 1 << 40
	for i := 0; i < 2; i++ {
		if _, err := m.Run(huge); err == nil || !strings.Contains(err.Error(), "table cap") {
			t.Fatalf("run %d of parfm at TH 2^40: err = %v, want the table cap", i, err)
		}
	}
	if len(m.sels) != 1 {
		t.Fatalf("memo holds %d pairs after one resolution and two failed ones, want 1", len(m.sels))
	}
	for th := 1; th <= selectorMemoCap+2; th++ {
		c := cfg
		c.TH = th
		if _, err := m.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.sels) != selectorMemoCap || m.sels[0].key.th != selectorMemoCap+2 {
		t.Fatalf("memo holds %d pairs, the newest at TH %d; want %d, the newest at TH %d",
			len(m.sels), m.sels[0].key.th, selectorMemoCap, selectorMemoCap+2)
	}
	bad := cfg
	bad.Fault = fault.Config{Seed: 3, PanicAfterActs: 5}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("run set to panic after 5 ACTs did not panic")
			}
		}()
		_, _ = m.Run(bad)
	}()
	if _, err := m.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(m.sels) != 1 {
		t.Fatalf("memo holds %d pairs after a panicked run and one more, want 1", len(m.sels))
	}
}

// panicStream panics in its Next after left records, from inside the
// core's advance pass that asked for them.
type panicStream struct {
	inner cpu.Stream
	left  int
}

func (s *panicStream) Next() (cpu.Record, bool) {
	if s.left == 0 {
		panic("stream ends mid-advance")
	}
	s.left--
	return s.inner.Next()
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
	pl, err := m.resolvePlugins(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.start(cfg, pl)
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
// allocates end to end: validation, plugin resolution, the per-run cores,
// and the dispatch of a 100k-instruction AutoRFM-4 run
// (BenchmarkSimRun's config). The device pipelines down to each bank's
// tracker and policy, the tables of every built-in tracker, the cores and
// their memory ops and workload generators, the memory controller, LLC,
// mapper, event queue, pre-warm and resolved selectors are all reused, so
// the count is 29 to 41 on go1.24, whichever built-in tracker runs: the
// Result and pools still growing into the second run. A new generator per
// core and run (three objects each) and the plugin resolution (17) put it
// at 82, new per-bank trackers, policies and cores every run at ≈476, a new
// controller per run at ≈930, TWiCe's slot arrays and index regrown every
// run at ≈2.1k, and the allocating victim path and per-bank heap tables at
// ≈7.9k.
const warmRunAllocCeiling = 48

// TestMachineWarmRunAllocs pins the warm-start cost: a repeated Run of the
// same config on one Machine stays under warmRunAllocCeiling objects, for
// every built-in tracker.
func TestMachineWarmRunAllocs(t *testing.T) {
	for _, trk := range []string{"mint", "pride", "parfm", "para", "mithril", "graphene", "twice"} {
		t.Run(trk, func(t *testing.T) {
			cfg := Config{Workload: diffProfile("bwaves"), InstructionsPerCore: 100_000,
				Mode: dram.ModeAutoRFM, TH: 4, Seed: 1, Tracker: trk}
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
		})
	}
}
