package fault

import (
	"math"
	"testing"

	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// countingTracker records what reaches it, so tests can observe exactly
// which faults the wrapper injected.
type countingTracker struct {
	rows []uint32
	sels int
}

func (c *countingTracker) Name() string            { return "counting" }
func (c *countingTracker) OnActivation(row uint32) { c.rows = append(c.rows, row) }
func (c *countingTracker) Reset()                  { c.rows, c.sels = nil, 0 }
func (c *countingTracker) SelectForMitigation() tracker.Selection {
	c.sels++
	return tracker.Selection{Row: uint32(c.sels), Level: 1, OK: true}
}

func TestValidate(t *testing.T) {
	good := []Config{{}, {ActMissProb: 1}, {ChaosProb: 0.5}, {PanicAfterActs: 3}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{ActMissProb: -0.1},
		{TrackerBitFlipProb: 1.5},
		{DropMitigationProb: math.NaN()},
		{DelayMitigationProb: math.Inf(1)},
		{ChaosProb: 2},
		{PanicAfterActs: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
}

func TestWrapInactiveIsIdentity(t *testing.T) {
	inner := &countingTracker{}
	if got := WrapTracker(inner, Config{ChaosProb: 0.5}, rng.New(1)); got != inner {
		t.Fatal("inactive config wrapped the tracker")
	}
}

func TestActMissDropsObservations(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{ActMissProb: 0.5, Seed: 1}, rng.New(1))
	const n = 10_000
	for i := 0; i < n; i++ {
		trk.OnActivation(uint32(i))
	}
	got := len(inner.rows)
	if got < n*4/10 || got > n*6/10 {
		t.Fatalf("inner saw %d of %d activations, want ≈50%%", got, n)
	}
}

func TestBitFlipCorruptsOneBit(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{TrackerBitFlipProb: 1}, rng.New(2))
	const row = 0x2a
	flips := 0
	for i := 0; i < 1000; i++ {
		trk.OnActivation(row)
	}
	for _, got := range inner.rows {
		diff := got ^ row
		if diff == 0 {
			t.Fatal("row passed through unflipped at probability 1")
		}
		if diff&(diff-1) != 0 {
			t.Fatalf("row %#x differs from %#x by more than one bit", got, row)
		}
		flips++
	}
	if flips != 1000 {
		t.Fatalf("inner saw %d activations, want 1000", flips)
	}
}

func TestDropLosesSelections(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{DropMitigationProb: 1}, rng.New(3))
	for i := 0; i < 10; i++ {
		if sel := trk.SelectForMitigation(); sel.OK {
			t.Fatal("selection survived a 100% drop probability")
		}
	}
	if inner.sels != 10 {
		t.Fatalf("inner selected %d times, want 10 (state advances even when dropped)", inner.sels)
	}
}

func TestDelayDefersByOneSlot(t *testing.T) {
	inner := &countingTracker{}
	trk := WrapTracker(inner, Config{DelayMitigationProb: 1}, rng.New(4))
	// Slot 1: nomination 1 is stashed, nothing (no prior stash) is served.
	if sel := trk.SelectForMitigation(); sel.OK {
		t.Fatalf("first delayed slot served %+v", sel)
	}
	// Slot 2: nomination 2 is stashed, nomination 1 is served one slot late.
	sel := trk.SelectForMitigation()
	if !sel.OK || sel.Row != 1 {
		t.Fatalf("second slot served %+v, want delayed row 1", sel)
	}
}

func TestDeterministicInjection(t *testing.T) {
	runOnce := func() []uint32 {
		inner := &countingTracker{}
		trk := WrapTracker(inner, Config{ActMissProb: 0.3, TrackerBitFlipProb: 0.3, Seed: 9}, rng.New(9))
		for i := 0; i < 5000; i++ {
			trk.OnActivation(uint32(i))
		}
		return inner.rows
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observation %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestPanicAfterActs(t *testing.T) {
	trk := WrapTracker(&countingTracker{}, Config{PanicAfterActs: 3}, rng.New(1))
	trk.OnActivation(1)
	trk.OnActivation(2)
	defer func() {
		if recover() == nil {
			t.Fatal("third activation did not panic")
		}
	}()
	trk.OnActivation(3)
}

func TestChaosPanicsDeterministicMix(t *testing.T) {
	cfg := Config{ChaosProb: 0.5, Seed: 7}
	ids := []string{"job-a", "job-b", "job-c", "job-d", "job-e", "job-f", "job-g", "job-h"}
	panics := 0
	for _, id := range ids {
		first := ChaosPanics(cfg, id)
		if second := ChaosPanics(cfg, id); second != first {
			t.Fatalf("ChaosPanics(%q) not deterministic", id)
		}
		if first {
			panics++
		}
	}
	if panics == 0 || panics == len(ids) {
		t.Fatalf("chaos selected %d/%d jobs; want a strict subset", panics, len(ids))
	}
	if ChaosPanics(Config{}, "job-a") {
		t.Fatal("zero config selected a job")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaybeChaosPanic did not panic at probability 1")
		}
	}()
	MaybeChaosPanic(Config{ChaosProb: 1, Seed: 1}, "doomed")
}

// FuzzApplySpec: any -faults selector either is rejected or leaves a config
// that Validate accepts; none panics.
func FuzzApplySpec(f *testing.F) {
	for _, s := range []string{
		"chaos(p=0.5)",
		"act-miss(p=0.01),drop-mitigation(p=0.1)",
		"bit-flip(p=1),delay-mitigation(p=0)",
		"panic-after-acts(n=3)",
		"panic-after-acts(n=-1)",
		"chaos(p=NaN)",
		"chaos(p=1e309)",
		"act-miss(q=0.1)",
		"nope",
		"chaos(p=0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, selector string) {
		var c Config
		if err := ApplySpec(selector, &c); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ApplySpec(%q) accepted a config Validate rejects: %v", selector, err)
		}
	})
}
