package attack

import (
	"testing"
)

const milAct = 1_000_000

// TestHalfDoubleBreaksBaseline reproduces the Section V-A vulnerability:
// with the non-transitive baseline policy (always refresh ±1, ±2), the
// defence's own victim refreshes hammer the rows at distance 3 without
// ever refreshing them, so a continuous hammer breaks distant rows at any
// realistic threshold.
func TestHalfDoubleBreaksBaseline(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "baseline",
		TRHD:   74,
		Acts:   milAct,
		Seed:   1,
	}, HalfDouble(64*1024))
	if rep.Failures == 0 {
		t.Fatalf("baseline policy survived Half-Double: %+v", rep)
	}
}

// TestHalfDoubleDefeatedByFractal: Fractal Mitigation spreads refreshes
// over distant neighbours with the 2^(1-d) law, so the transitive damage
// at every distance stays far below the threshold.
func TestHalfDoubleDefeatedByFractal(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   74,
		Acts:   milAct,
		Seed:   1,
	}, HalfDouble(64*1024))
	if rep.Failures != 0 {
		t.Fatalf("fractal mitigation failed under Half-Double: %+v", rep)
	}
	if rep.MaxDamage >= 2*74 {
		t.Fatalf("max damage %d reached the 2×TRH-D bound", rep.MaxDamage)
	}
}

// TestHalfDoubleDefeatedByRecursive: recursive mitigation chains outward
// (level-2 refreshes ±3, ±4, ...), also defending the transitive attack.
func TestHalfDoubleDefeatedByRecursive(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "recursive",
		TRHD:   96,
		Acts:   milAct,
		Seed:   1,
	}, HalfDouble(64*1024))
	if rep.Failures != 0 {
		t.Fatalf("recursive mitigation failed under Half-Double: %+v", rep)
	}
}

// TestDoubleSidedAtPaperThreshold: MINT-4 + FM tolerates TRH-D 74
// (Table VI); a double-sided attack at that threshold must never succeed
// in an observable run (the analytic failure probability is ~1e-19/epoch).
func TestDoubleSidedAtPaperThreshold(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   74,
		Acts:   2 * milAct,
		Seed:   2,
	}, DoubleSided(90_000))
	if rep.Failures != 0 {
		t.Fatalf("MINT-4+FM failed at TRH-D 74: %+v", rep)
	}
}

// TestDoubleSidedBelowSafeThreshold: at a tiny threshold the same defence
// must fail observably — this checks the audit actually detects failures
// (escape probability (3/4)^20 ≈ 3e-3 per epoch).
func TestDoubleSidedBelowSafeThreshold(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   10,
		Acts:   milAct,
		Seed:   3,
	}, DoubleSided(90_000))
	if rep.Failures == 0 {
		t.Fatal("no failures at TRH-D 10 — audit insensitive")
	}
}

// TestCircularAtPaperThreshold: the (ABCD)^K pattern is the analytic
// best case; MINT-4+FM must still hold at TRH-D 74.
func TestCircularAtPaperThreshold(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   74,
		Acts:   2 * milAct,
		Seed:   4,
	}, Circular(100_000, 4))
	if rep.Failures != 0 {
		t.Fatalf("MINT-4+FM failed under circular attack at TRH-D 74: %+v", rep)
	}
}

// TestMitigationCadence: the defence must mitigate once per TH successful
// activations regardless of pattern.
func TestMitigationCadence(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   74,
		Acts:   100_000,
		Seed:   5,
	}, Circular(50_000, 8))
	perMit := float64(rep.Acts) / float64(rep.Mitigations)
	if perMit < 3.9 || perMit > 4.3 {
		t.Fatalf("acts per mitigation = %.2f, want ≈4", perMit)
	}
	if rep.Refreshes < 4*rep.Mitigations-8 {
		t.Fatalf("refreshes %d for %d mitigations", rep.Refreshes, rep.Mitigations)
	}
}

// TestSAUMAlertsUnderAttack: a single-row hammer keeps hitting its own
// subarray's mitigation, so the attacker loses slots to ALERTs — the
// built-in rate limit of AutoRFM.
func TestSAUMAlertsUnderAttack(t *testing.T) {
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   74,
		Acts:   200_000,
		Seed:   6,
	}, SingleSided(70_000))
	if rep.Alerts == 0 {
		t.Fatal("single-row hammer never conflicted with its own mitigation")
	}
}

// TestBlockingRFMModeAudit: the same security holds when mitigation time
// comes from blocking RFM commands instead of AutoRFM.
func TestBlockingRFMModeAudit(t *testing.T) {
	rep := MustRun(Config{
		TH:       4,
		Policy:   "fractal",
		TRHD:     74,
		Acts:     milAct,
		Seed:     7,
		Blocking: true,
	}, DoubleSided(80_000))
	if rep.Failures != 0 {
		t.Fatalf("RFM-4+FM failed at TRH-D 74: %+v", rep)
	}
	if rep.Alerts != 0 {
		t.Fatal("blocking mode must not produce alerts")
	}
}

// TestManySidedAndDecoys exercises the remaining patterns at the paper
// threshold.
func TestManySidedAndDecoys(t *testing.T) {
	for _, p := range []Pattern{ManySided(40_000, 10), DecoyFlood(45_000, 64)} {
		rep := MustRun(Config{
			TH:     4,
			Policy: "fractal",
			TRHD:   74,
			Acts:   milAct,
			Seed:   8,
		}, p)
		if rep.Failures != 0 {
			t.Errorf("%s: failures = %d at TRH-D 74", p.Name, rep.Failures)
		}
	}
}

// TestRecursiveChainsTieSubarray: under a focused attack, recursive
// mitigation produces chained (level>1) mitigations, the behaviour Fractal
// Mitigation eliminates (Section V-B).
func TestRecursiveChainsTieSubarray(t *testing.T) {
	cfg := Config{TH: 4, Policy: "recursive", TRHD: 96, Acts: 400_000, Seed: 9}
	rep := MustRun(cfg, SingleSided(30_000))
	if rep.Mitigations == 0 {
		t.Fatal("no mitigations")
	}
	// ~1/5 of selections take the reserved transitive slot, chaining the
	// mitigation outward; Fractal produces none at all.
	tfrac := float64(rep.Transitive) / float64(rep.Mitigations)
	if tfrac < 0.1 || tfrac > 0.3 {
		t.Fatalf("recursive transitive fraction = %.2f, want ≈0.2", tfrac)
	}
	frac := MustRun(Config{TH: 4, Policy: "fractal", TRHD: 96, Acts: 400_000, Seed: 9},
		SingleSided(30_000))
	if frac.Transitive != 0 {
		t.Fatalf("fractal produced %d transitive mitigations", frac.Transitive)
	}
}

// TestRecursiveMINTSpellings: under the recursive policy the device tells
// MINT to reserve its transitive slot, so "mint" and "mint(recursive=true)"
// audit identically, while "mint(recursive=false)" is honoured and never
// takes the reserved slot.
func TestRecursiveMINTSpellings(t *testing.T) {
	audit := func(trk string) Report {
		return MustRun(Config{TH: 4, Policy: "recursive", Tracker: trk, TRHD: 96, Acts: 100_000, Seed: 3},
			HalfDouble(64*1024))
	}
	plain, explicit := audit("mint"), audit("mint(recursive=true)")
	if plain != explicit {
		t.Errorf("mint %+v, mint(recursive=true) %+v; want equal", plain, explicit)
	}
	if plain.Transitive == 0 {
		t.Error("mint under the recursive policy took no transitive slot")
	}
	if off := audit("mint(recursive=false)"); off.Transitive != 0 || off.Mitigations == 0 {
		t.Errorf("mint(recursive=false): %+v, want mitigations but no transitive ones", off)
	}
}

func TestUnknownPolicyErrors(t *testing.T) {
	if _, err := Run(Config{TH: 4, Policy: "nope", TRHD: 74, Acts: 10, Seed: 1},
		SingleSided(1000)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPatternShapes(t *testing.T) {
	ds := DoubleSided(100)
	if ds.Row(0, nil) != 99 || ds.Row(1, nil) != 101 {
		t.Error("double-sided rows wrong")
	}
	c := Circular(1000, 4)
	if c.Row(0, nil) != 1000 || c.Row(4, nil) != 1000 || c.Row(1, nil) != 1004 {
		t.Error("circular rows wrong")
	}
	m := ManySided(0, 3)
	seen := map[uint32]bool{}
	for i := uint64(0); i < 6; i++ {
		seen[m.Row(i, nil)] = true
	}
	if len(seen) != 6 {
		t.Errorf("many-sided covered %d rows, want 6", len(seen))
	}
}

// TestFuzzedPatternsAtPaperThreshold probes random Blacksmith-style
// patterns: none may break MINT-4 + Fractal Mitigation at TRH-D 74.
func TestFuzzedPatternsAtPaperThreshold(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		rep := MustRun(Config{
			TH:     4,
			Policy: "fractal",
			TRHD:   74,
			Acts:   milAct,
			Seed:   seed,
		}, Fuzzed(120_000, 6, seed))
		if rep.Failures != 0 {
			t.Errorf("seed %d: fuzzed pattern broke the defence: %+v", seed, rep)
		}
	}
}

// TestFMDamageDecaysWithDistance checks the Half-Double damage profile: the
// residual damage around a hammered row must decay roughly geometrically
// with distance, mirroring the 2^(1-d) refresh law that protects each ring.
func TestFMDamageDecaysWithDistance(t *testing.T) {
	geoAgg := uint32(64 * 1024)
	rep := MustRun(Config{
		TH:     4,
		Policy: "fractal",
		TRHD:   0, // no failure threshold: observe raw damage
		Acts:   milAct,
		Seed:   4,
	}, HalfDouble(geoAgg))
	if rep.MaxDamage == 0 {
		t.Fatal("no damage recorded")
	}
	// MaxDamage under FM stays far below even half the paper threshold.
	if rep.MaxDamage > 74 {
		t.Fatalf("max damage %d under FM, want well below TRH-D", rep.MaxDamage)
	}
}
