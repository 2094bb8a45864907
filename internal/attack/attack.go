package attack

import (
	"fmt"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/mapping"
	"autorfm/internal/rng"
)

// Pattern yields the i-th row the attacker activates.
type Pattern struct {
	Name string
	Row  func(i uint64, r *rng.Source) uint32
}

// DoubleSided hammers the two neighbours of victim alternately — the
// classic pattern defining TRH-D.
func DoubleSided(victim uint32) Pattern {
	return Pattern{
		Name: "double-sided",
		Row: func(i uint64, _ *rng.Source) uint32 {
			if i%2 == 0 {
				return victim - 1
			}
			return victim + 1
		},
	}
}

// SingleSided hammers one aggressor row continuously.
func SingleSided(agg uint32) Pattern {
	return Pattern{
		Name: "single-sided",
		Row:  func(uint64, *rng.Source) uint32 { return agg },
	}
}

// Circular activates w unique rows round-robin — (ABCD)^K, the best-case
// pattern against window trackers (Appendix A). Rows are spaced 4 apart so
// their victim zones do not overlap. It panics if w < 1.
func Circular(base uint32, w int) Pattern {
	if w < 1 {
		panic("attack: invalid Circular row count")
	}
	return Pattern{
		Name: fmt.Sprintf("circular-%d", w),
		Row: func(i uint64, _ *rng.Source) uint32 {
			return base + uint32(i%uint64(w))*4
		},
	}
}

// HalfDouble hammers a single far aggressor continuously; the damage to
// distant rows comes entirely from the defence's own victim refreshes
// (Section V-A / Kogler et al.). The interesting rows are agg±2, agg±3, …
func HalfDouble(agg uint32) Pattern {
	return Pattern{
		Name: "half-double",
		Row:  func(uint64, *rng.Source) uint32 { return agg },
	}
}

// ManySided sweeps n aggressor pairs TRRespass-style. It panics if n < 1.
func ManySided(base uint32, n int) Pattern {
	if n < 1 {
		panic("attack: invalid ManySided pair count")
	}
	return Pattern{
		Name: fmt.Sprintf("many-sided-%d", n),
		Row: func(i uint64, _ *rng.Source) uint32 {
			pair := uint32(i/2) % uint32(n)
			side := uint32(i % 2) // 0 → left aggressor, 1 → right
			return base + pair*8 + side*2
		},
	}
}

// DecoyFlood interleaves the victim's aggressors with random decoy rows to
// stress buffered trackers (PrIDE's FIFO) into dropping victim samples.
// It panics if decoys < 1.
func DecoyFlood(victim uint32, decoys int) Pattern {
	if decoys < 1 {
		panic("attack: invalid DecoyFlood decoy count")
	}
	return Pattern{
		Name: "decoy-flood",
		Row: func(i uint64, r *rng.Source) uint32 {
			if i%4 == 0 {
				if i%8 == 0 {
					return victim - 1
				}
				return victim + 1
			}
			return victim + 1000 + uint32(r.Intn(decoys))*4
		},
	}
}

// Config parameterises one audit run.
type Config struct {
	// TH is the mitigation interval (AutoRFMTH / RFMTH).
	TH int
	// Policy selects the registered mitigation policy by name ("fractal",
	// "recursive", "baseline", or any plugin registered with
	// mitigation.Register).
	Policy string
	// Tracker selects the registered tracker by plugin spec, e.g. "mint" or
	// "pride(fifo=8)". Empty means "mint", the paper's representative.
	// The device tells the tracker whether the policy is recursive, so
	// MINT reserves its transitive slot unless the spec says otherwise.
	Tracker string
	// TRHD is the double-sided threshold under audit: the ledger records a
	// failure when any row takes 2×TRHD single-sided damage.
	TRHD uint32
	// Acts is the number of attacker activations to attempt.
	Acts uint64
	// Seed drives the device PRNGs and the pattern's randomness.
	Seed uint64
	// Blocking, if true, models RFM-style blocking mitigation (no SAUM, no
	// alerts); otherwise AutoRFM transparent mitigation is used.
	Blocking bool
}

// Report summarises an audit run.
type Report struct {
	Acts        uint64 // successful attacker activations
	Alerts      uint64 // activations declined by the SAUM
	Mitigations uint64
	Transitive  uint64 // mitigations at level > 1 (recursive chains)
	Refreshes   uint64 // victim refreshes issued by the defence
	Failures    uint64 // rows crossing the threshold (Rowhammer successes)
	MaxDamage   uint32 // worst single-sided damage any row reached
}

// Run drives one bank with the pattern at the attacker's maximum rate —
// one activation per tRC, pausing tRFC for each REF every tREFI — for
// cfg.Acts activations.
//
// The device holds only the attacked bank: bank 0 of the default geometry.
// A bank's PRNG seed and tracker depend only on its ID, so the other 63
// banks would never influence the report; building them would only cost
// their ledgers and trackers.
func Run(cfg Config, p Pattern) (Report, error) {
	geo := mapping.Default()
	geo.Banks, geo.Subchannels = 1, 1
	tm := cfg.Timing()
	dcfg := dram.Config{
		Geo:            geo,
		Timing:         tm,
		Mode:           dram.ModeAutoRFM,
		TH:             cfg.TH,
		Audit:          true,
		AuditThreshold: 2 * cfg.TRHD,
		Seed:           cfg.Seed,
	}
	if cfg.Blocking {
		dcfg.Mode = dram.ModeRFM
	}
	trk := cfg.Tracker
	if trk == "" {
		trk = "mint"
	}
	var err error
	dcfg.NewPolicy, dcfg.NewTracker, err = dram.Resolve(cfg.Policy, trk, cfg.TH)
	if err != nil {
		return Report{}, err
	}

	dev := dram.NewDevice(dcfg)
	bank := dev.Banks[0]
	patRNG := rng.New(cfg.Seed ^ 0xa77ac4)

	// The attacker's declined activation wastes its slot; the MC-style
	// retry happens after the mitigation time.
	retryWait := tm.MitigationTime(4) - tm.TRC
	now := clk.Tick(0)
	nextREF := tm.TREFI
	var refIdx uint64
	var rep Report
	actsInRFMWindow := 0

	for i := uint64(0); rep.Acts < cfg.Acts; i++ {
		if now >= nextREF {
			refIdx++
			bank.ExecuteREF(refIdx)
			now += tm.TRFC
			nextREF += tm.TREFI
		}
		row := p.Row(i, patRNG)
		res := bank.Activate(now, row)
		now += tm.TRC
		if res.Alert {
			rep.Alerts++
			now += retryWait
			continue
		}
		rep.Acts++
		if res.WindowClosed {
			// AutoRFM: mitigation launches at this ACT's precharge.
			bank.StartPendingMitigation(now + tm.TRAS)
		}
		if cfg.Blocking {
			actsInRFMWindow++
			if actsInRFMWindow >= cfg.TH {
				actsInRFMWindow = 0
				bank.ExecuteRFM()
				now += tm.TRFM
			}
		}
	}

	rep.Mitigations = bank.Stats.Mitigations
	rep.Transitive = bank.Stats.TransitiveMits
	rep.Refreshes = bank.Stats.VictimRefreshes
	rep.MaxDamage = bank.Ledger.MaxDamage
	rep.Failures = bank.Ledger.Failures
	return rep, nil
}

// Timing exposes the harness timing (DDR5) for duration accounting.
func (Config) Timing() clk.Timing { return clk.DDR5() }

// MustRun is Run, panicking on configuration errors.
func MustRun(cfg Config, p Pattern) Report {
	r, err := Run(cfg, p)
	if err != nil {
		panic(err)
	}
	return r
}

// Fuzzed returns a randomised pattern in the spirit of Blacksmith: a small
// set of aggressor rows hammered with random per-row intensities, phases
// and interleavings, re-drawn every "round". The threat model (Section
// II-A) demands security against all access patterns; fuzzing probes the
// corners the structured patterns miss. It panics if rows < 1.
func Fuzzed(base uint32, rows int, seed uint64) Pattern {
	if rows < 1 {
		panic("attack: invalid Fuzzed row count")
	}
	state := rng.New(seed)
	// Each round draws a weight w_j in [1, 8] per row j; pick holds row
	// j's address w_j times, so a uniform index into it is the weighted
	// choice in one load.
	pick := make([]uint32, 0, 8*rows)
	redraw := func() {
		pick = pick[:0]
		for j := 0; j < rows; j++ {
			for w := 1 + state.Intn(8); w > 0; w-- {
				pick = append(pick, base+uint32(j)*4)
			}
		}
	}
	redraw()
	return Pattern{
		Name: fmt.Sprintf("fuzzed-%d", rows),
		Row: func(i uint64, r *rng.Source) uint32 {
			if i%4096 == 0 {
				redraw()
			}
			return pick[state.Intn(len(pick))]
		},
	}
}
