package mitigation

import (
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// Policy maps a mitigation selection to victim rows.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Victims returns the rows to refresh for the given selection. Rows
	// outside [0, rowsPerBank) are clamped away (edge-of-bank aggressors
	// simply refresh fewer victims).
	Victims(sel tracker.Selection, rowsPerBank int) []uint32
	// NumRefreshes is the maximum victim refreshes per mitigation, which
	// determines the mitigation latency (NumRefreshes × tRC).
	NumRefreshes() int
	// Recursive reports whether the policy relies on recursive (chained)
	// mitigations to defend transitive attacks. Recursive policies require
	// the tracker to reserve a transitive slot (MINT's W+1 mode) and can
	// keep a subarray busy for consecutive windows.
	Recursive() bool
}

// VictimAppender is the allocation-free variant of Policy.Victims: the
// victim rows are appended to dst (reusing its capacity) instead of a fresh
// slice. All built-in policies implement it; the DRAM device type-asserts
// for it once per bank at construction and reuses one buffer per bank
// across mitigations, which removes the dominant allocation of the
// simulation update loop. Implementations must return the victims Victims
// would and consume exactly its PRNG draws, so both paths stay
// byte-identical (pinned by TestAppendVictimsZeroAllocs).
type VictimAppender interface {
	AppendVictims(dst []uint32, sel tracker.Selection, rowsPerBank int) []uint32
}

// neighbors appends the rows at ±d from row, skipping rows outside the bank.
func neighbors(dst []uint32, row uint32, d int, rowsPerBank int) []uint32 {
	if int(row)-d >= 0 {
		dst = append(dst, row-uint32(d))
	}
	if int(row)+d < rowsPerBank {
		dst = append(dst, row+uint32(d))
	}
	return dst
}

// Baseline always refreshes the four rows within blast radius 2 (±1, ±2).
// It is what Section IV assumes before transitive attacks are considered,
// and is vulnerable to Half-Double at low thresholds.
type Baseline struct{}

// NewBaseline returns the blast-radius-2 policy.
func NewBaseline() Baseline { return Baseline{} }

func (Baseline) Name() string      { return "baseline" }
func (Baseline) NumRefreshes() int { return 4 }
func (Baseline) Recursive() bool   { return false }

func (Baseline) Victims(sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return nil
	}
	return Baseline{}.AppendVictims(make([]uint32, 0, 4), sel, rowsPerBank)
}

// AppendVictims implements VictimAppender.
func (Baseline) AppendVictims(dst []uint32, sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return dst
	}
	dst = neighbors(dst, sel.Row, 1, rowsPerBank)
	dst = neighbors(dst, sel.Row, 2, rowsPerBank)
	return dst
}

// Recursive implements the defence of Section V-B / Fig 9(b): a level-L
// mitigation refreshes the rows at distances 2L-1 and 2L on both sides of
// the original aggressor. Level 1 refreshes ±1, ±2 (like Baseline); a
// level-2 (transitive) mitigation of the same aggressor refreshes ±3, ±4;
// and so on. The escalation is driven by the tracker's reserved slot
// (MINT's W+1 mode), so the same subarray can stay busy for several
// consecutive windows — the non-determinism Fractal Mitigation eliminates.
type Recursive struct{}

// NewRecursive returns the recursive-mitigation policy.
func NewRecursive() Recursive { return Recursive{} }

func (Recursive) Name() string      { return "recursive" }
func (Recursive) NumRefreshes() int { return 4 }
func (Recursive) Recursive() bool   { return true }

func (Recursive) Victims(sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return nil
	}
	return Recursive{}.AppendVictims(make([]uint32, 0, 4), sel, rowsPerBank)
}

// AppendVictims implements VictimAppender.
func (Recursive) AppendVictims(dst []uint32, sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return dst
	}
	level := sel.Level
	if level < 1 {
		level = 1
	}
	dst = neighbors(dst, sel.Row, 2*level-1, rowsPerBank)
	dst = neighbors(dst, sel.Row, 2*level, rowsPerBank)
	return dst
}

// Fractal implements Fractal Mitigation (Section V-C, Fig 10): the immediate
// neighbors (±1) are always refreshed, and one additional pair at distance
// d is refreshed, where d is sampled with probability 2^(1-d) by counting
// the leading zeros of a 16-bit random draw. Exactly four victim refreshes
// are issued per mitigation and no recursive follow-up is ever required, so
// the subarray is busy for a deterministic 4×tRC.
type Fractal struct {
	r *rng.Source

	// DistanceCounts records how often each distance was refreshed; exported
	// for the security-validation tests of the 2^(1-d) law. Distances are
	// 2..18 (rng.FractalDistance), so a fixed array indexed by distance
	// replaces the former map without any overflow case.
	DistanceCounts [19]uint64
}

// NewFractal returns a Fractal Mitigation policy drawing randomness from r
// (modelling the per-bank PRNG of Section VI-C).
func NewFractal(r *rng.Source) *Fractal {
	return &Fractal{r: r}
}

func (*Fractal) Name() string      { return "fractal" }
func (*Fractal) NumRefreshes() int { return 4 }
func (*Fractal) Recursive() bool   { return false }

func (f *Fractal) Victims(sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return nil
	}
	return f.AppendVictims(make([]uint32, 0, 4), sel, rowsPerBank)
}

// AppendVictims implements VictimAppender, consuming exactly the PRNG draw
// Victims would.
func (f *Fractal) AppendVictims(dst []uint32, sel tracker.Selection, rowsPerBank int) []uint32 {
	if !sel.OK {
		return dst
	}
	dst = neighbors(dst, sel.Row, 1, rowsPerBank)
	d := rng.FractalDistance(f.r.Uint16())
	f.DistanceCounts[d]++
	dst = neighbors(dst, sel.Row, d, rowsPerBank)
	return dst
}
