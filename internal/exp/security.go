package exp

import (
	"fmt"

	"autorfm/internal/analytic"
	"autorfm/internal/attack"
	"autorfm/internal/clk"
	"autorfm/internal/rng"
	"autorfm/internal/stats"
	"autorfm/internal/tracker"
)

// Table3 regenerates Table III: the TRH-D tolerated by MINT (with the
// recursive-mitigation reserved slot, as the original MINT design) as the
// window varies (paper: 4→96, 8→182, 16→356, 32→702).
func Table3(Scale) (Result, error) {
	tm := clk.DDR5()
	tbl := stats.NewTable("Window (W)", "TRH-D (computed)", "TRH-D (paper)")
	paper := map[int]float64{4: 96, 8: 182, 16: 356, 32: 702}
	summary := map[string]float64{}
	for _, w := range []int{4, 8, 16, 32} {
		_, trhd := analytic.MINTThreshold(w, true, tm, analytic.MTTFTarget)
		tbl.Add(w, trhd, paper[w])
		summary[fmt.Sprintf("trhd_w%d", w)] = trhd
	}
	return Result{ID: "tab3", Title: "Threshold tolerated by MINT", Table: tbl, Summary: summary}, nil
}

// Fig14 regenerates Appendix A Figure 14: TRH-D versus MINT window for
// recursive and fractal mitigation.
func Fig14(Scale) (Result, error) {
	tm := clk.DDR5()
	tbl := stats.NewTable("Window", "Recursive TRH-D", "Fractal TRH-D")
	summary := map[string]float64{}
	for w := 4; w <= 32; w += 2 {
		_, rm := analytic.MINTThreshold(w, true, tm, analytic.MTTFTarget)
		_, fm := analytic.MINTThreshold(w, false, tm, analytic.MTTFTarget)
		tbl.Add(w, rm, fm)
		if w == 4 || w == 8 || w == 16 || w == 32 {
			summary[fmt.Sprintf("rm_w%d", w)] = rm
			summary[fmt.Sprintf("fm_w%d", w)] = fm
		}
	}
	return Result{ID: "fig14", Title: "Threshold vs window size", Table: tbl, Summary: summary}, nil
}

// Fig16 regenerates Appendix B Figure 16: the escape probability as a
// function of damage for Fractal Mitigation and for MINT-4, plus the
// mixed-attack data point the appendix discusses.
func Fig16(Scale) (Result, error) {
	tbl := stats.NewTable("Damage", "P_escape FM", "P_escape MINT-4")
	for _, d := range []float64{20, 40, 60, 80, 100, 120, 140} {
		tbl.Add(d, fmt.Sprintf("%.2e", analytic.EscapeProbFM(d)),
			fmt.Sprintf("%.2e", analytic.EscapeProbMINT(4, d)))
	}
	mixed := analytic.EscapeProbFM(40) * analytic.EscapeProbMINT(4, 80)
	direct := analytic.EscapeProbMINT(4, 120)
	return Result{ID: "fig16", Title: "Escape probability vs damage", Table: tbl,
		Summary: map[string]float64{
			"fm_damage_limit":   analytic.FMDamageLimit(1e-18),
			"fm_min_safe_trhd":  analytic.FMMinimumSafeTRHD(),
			"mixed_over_direct": mixed / direct, // < 1: mixing helps the defender
		}}, nil
}

// Fig18 regenerates Appendix D Figure 18: the TRH-D tolerated by PrIDE,
// MINT and Mithril when AutoRFM provides the mitigation time. PrIDE and
// MINT use the Appendix A machinery with empirically-measured selection
// probabilities; Mithril (deterministic) is audited directly for the
// maximum unmitigated activation count under attack.
func Fig18(sc Scale) (Result, error) {
	tm := clk.DDR5()
	tbl := stats.NewTable("AutoRFMTH", "PrIDE TRH-D", "MINT TRH-D", "Mithril maxActs (audit)")
	summary := map[string]float64{}
	ths := []int{4, 8}
	// Three independent measurements per threshold: the MINT and PrIDE
	// selection probabilities, and the Mithril audit.
	m := fanOut(sc, 3*len(ths), func(i int) float64 {
		th := ths[i/3]
		switch i % 3 {
		case 0:
			return analytic.EmpiricalSelectionProb(func(r *rng.Source) tracker.Tracker {
				return tracker.NewMINT(th, false, r)
			}, th, 300_000, sc.Seed)
		case 1:
			return analytic.EmpiricalSelectionProb(func(r *rng.Source) tracker.Tracker {
				return tracker.NewPrIDE(th, 4, r)
			}, th, 300_000, sc.Seed)
		default:
			return float64(mithrilAudit(th, sc))
		}
	})
	for k, th := range ths {
		mintT := analytic.TrackerThreshold(m[3*k], th, tm, analytic.MTTFTarget)
		prideT := analytic.TrackerThreshold(m[3*k+1], th, tm, analytic.MTTFTarget)
		// Mithril: the worst single-sided damage under the circular
		// best-case pattern; its tolerated TRH-D is half that (deterministic
		// bound, no exponential tail).
		mith := uint32(m[3*k+2])
		tbl.Add(th, prideT, mintT, mith)
		summary[fmt.Sprintf("pride_th%d", th)] = prideT
		summary[fmt.Sprintf("mint_th%d", th)] = mintT
		summary[fmt.Sprintf("mithril_maxacts_th%d", th)] = float64(mith)
	}
	return Result{ID: "fig18", Title: "TRH-D by tracker under AutoRFM", Table: tbl, Summary: summary}, nil
}

// mithrilAudit measures the maximum unmitigated neighbour-activation count
// any row reaches when Mithril (1024 entries) defends a circular attack
// that uses more distinct rows than the tracker has entries — the pattern
// that stresses the Misra-Gries spillover (Appendix D notes Mithril needs
// >30K entries per bank; with a small table the attacker rides the floor).
func mithrilAudit(th int, sc Scale) uint32 {
	const entries = 1024
	const rows = 3 * entries // overflow the table
	m := tracker.NewMithril(entries)
	counts := make([]uint32, rows)
	var maxUnmitigated uint32
	acts := sc.AttackActs
	if acts > 4_000_000 {
		acts = 4_000_000
	}
	r := rng.New(sc.Seed)
	for i := uint64(0); i < acts; i++ {
		row := uint32(r.Intn(rows))
		m.OnActivation(row * 4)
		counts[row]++
		if counts[row] > maxUnmitigated {
			maxUnmitigated = counts[row]
		}
		if (i+1)%uint64(th) == 0 {
			if sel := m.SelectForMitigation(); sel.OK && int(sel.Row/4) < rows {
				counts[sel.Row/4] = 0
			}
		}
	}
	return maxUnmitigated
}

// AppB validates the Appendix B security claims with the attack harness:
// Fractal Mitigation survives Half-Double and double-sided attacks at the
// paper threshold (TRH-D 74) while the non-transitive baseline policy is
// broken by Half-Double.
func AppB(sc Scale) (Result, error) {
	tbl := stats.NewTable("Policy", "Pattern", "TRH-D", "Failures", "MaxDamage")
	type c struct {
		policy  string
		pattern attack.Pattern
		trhd    uint32
	}
	cases := []c{
		{"baseline", attack.HalfDouble(64 * 1024), 74},
		{"fractal", attack.HalfDouble(64 * 1024), 74},
		{"recursive", attack.HalfDouble(64 * 1024), 96},
		{"fractal", attack.DoubleSided(90_000), 74},
		{"fractal", attack.Circular(100_000, 4), 74},
	}
	summary := map[string]float64{}
	reps := fanOut(sc, len(cases), func(i int) attack.Report {
		cs := cases[i]
		return attack.MustRun(attack.Config{
			TH: 4, Policy: cs.policy, TRHD: cs.trhd, Acts: sc.AttackActs, Seed: sc.Seed,
		}, cs.pattern)
	})
	for i, cs := range cases {
		rep := reps[i]
		tbl.Add(cs.policy, cs.pattern.Name, cs.trhd, rep.Failures, rep.MaxDamage)
		summary[cs.policy+"_"+cs.pattern.Name+"_failures"] = float64(rep.Failures)
	}
	summary["fm_min_safe_trhd"] = analytic.FMMinimumSafeTRHD()
	return Result{ID: "appb", Title: "Fractal Mitigation security audit", Table: tbl, Summary: summary}, nil
}
