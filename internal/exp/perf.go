package exp

import (
	"fmt"

	"autorfm/internal/analytic"
	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/sim"
	"autorfm/internal/stats"
)

// Fig3 regenerates Figure 3: per-workload slowdown of RFM-4/8/16/32 over
// the no-mitigation baseline (paper averages: 33%, 12.9%, 4.4%, 0.2%).
func Fig3(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	g, err := runGrid(sc, profiles,
		mech(dram.ModeRFM, 4, ""), mech(dram.ModeRFM, 8, ""),
		mech(dram.ModeRFM, 16, ""), mech(dram.ModeRFM, 32, ""))
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("Workload", "RFM-4(%)", "RFM-8(%)", "RFM-16(%)", "RFM-32(%)")
	summary := g.averageRows(tbl,
		column{"rfm4_avg_slowdown_pct", g.slowdownCol(base, 0)},
		column{"rfm8_avg_slowdown_pct", g.slowdownCol(base, 1)},
		column{"rfm16_avg_slowdown_pct", g.slowdownCol(base, 2)},
		column{"rfm32_avg_slowdown_pct", g.slowdownCol(base, 3)})
	return Result{ID: "fig3", Title: "Performance impact of RFM", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Fig1d regenerates Figure 1(d): the average RFM slowdown paired with the
// threshold each RFMTH tolerates (Table III), i.e. the cost of scaling RFM
// down the threshold curve.
func Fig1d(sc Scale) (Result, error) {
	tm := clk.DDR5()
	fig3, err := Fig3(sc)
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("RFMTH", "Tolerated TRH-D", "Avg slowdown(%)")
	summary := map[string]float64{}
	for _, th := range []int{32, 16, 8, 4} {
		_, trhd := analytic.MINTThreshold(th, true, tm, analytic.MTTFTarget)
		sd, ok := fig3.Summary[fmt.Sprintf("rfm%d_avg_slowdown_pct", th)]
		tbl.Add(th, trhd, cell(sd, ok))
		summary[fmt.Sprintf("trhd_rfm%d", th)] = trhd
		if ok {
			summary[fmt.Sprintf("slowdown_rfm%d", th)] = sd
		}
	}
	return Result{ID: "fig1d", Title: "RFM slowdown vs tolerated threshold", Table: tbl,
		Summary: summary, Failures: fig3.Failures}, nil
}

// Table5 regenerates Table V: measured ACT-PKI and per-bank ACT-per-tREFI
// for every workload, against the published values.
func Table5(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	g, err := runGrid(sc, profiles)
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("Workload", "Suite", "ACT-PKI", "paper", "ACT/tREFI", "paper")
	var pkiErr, trefiErr []float64
	for wi, p := range profiles {
		r, ok := g.result(wi, base)
		if !ok {
			tbl.Add(p.Name, p.Suite, "ERR", p.TargetACTPKI, "ERR", p.TargetACTPerTREFI)
			continue
		}
		tbl.Add(p.Name, p.Suite, r.ACTPKI(), p.TargetACTPKI, r.ACTPerTREFI(), p.TargetACTPerTREFI)
		pkiErr = append(pkiErr, abs(r.ACTPKI()-p.TargetACTPKI)/p.TargetACTPKI*100)
		trefiErr = append(trefiErr, abs(r.ACTPerTREFI()-p.TargetACTPerTREFI)/p.TargetACTPerTREFI*100)
	}
	summary := map[string]float64{}
	if m, ok := meanValid(pkiErr); ok {
		summary["mean_actpki_error_pct"] = m
	}
	if m, ok := meanValid(trefiErr); ok {
		summary["mean_acttrefi_error_pct"] = m
	}
	return Result{ID: "tab5", Title: "Workload characteristics", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Fig8 regenerates Figure 8: AutoRFM-4 slowdown (a) and ALERT-per-ACT (b)
// under the baseline AMD-Zen mapping and under Rubix randomised mapping
// (paper averages: 16.5%→3.1% slowdown, 3.7%→0.22% alerts).
func Fig8(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	g, err := runGrid(sc, profiles,
		mech(dram.ModeAutoRFM, 4, "amd-zen"), mech(dram.ModeAutoRFM, 4, "rubix"))
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("Workload", "Zen slow(%)", "Zen ALERT/ACT(%)",
		"Rubix slow(%)", "Rubix ALERT/ACT(%)")
	summary := g.averageRows(tbl,
		column{"zen_avg_slowdown_pct", g.slowdownCol(base, 0)},
		column{"zen_alert_per_act_pct", g.alertCol(0)},
		column{"rubix_avg_slowdown_pct", g.slowdownCol(base, 1)},
		column{"rubix_alert_per_act_pct", g.alertCol(1)})
	return Result{ID: "fig8", Title: "Impact of memory mapping on AutoRFM-4", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Fig11 regenerates Figure 11: per-workload slowdown of RFM-4/8 (blocking)
// versus AutoRFM-4/8 (transparent, with Rubix mapping and Fractal
// Mitigation), all over the Zen no-mitigation baseline.
func Fig11(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	g, err := runGrid(sc, profiles,
		mech(dram.ModeRFM, 4, ""), mech(dram.ModeAutoRFM, 4, "rubix"),
		mech(dram.ModeRFM, 8, ""), mech(dram.ModeAutoRFM, 8, "rubix"))
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("Workload", "RFM-4(%)", "AutoRFM-4(%)", "RFM-8(%)", "AutoRFM-8(%)")
	summary := g.averageRows(tbl,
		column{"rfm4_avg_pct", g.slowdownCol(base, 0)},
		column{"autorfm4_avg_pct", g.slowdownCol(base, 1)},
		column{"rfm8_avg_pct", g.slowdownCol(base, 2)},
		column{"autorfm8_avg_pct", g.slowdownCol(base, 3)})
	return Result{ID: "fig11", Title: "RFM vs AutoRFM", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Table6 regenerates Table VI: average AutoRFM slowdown (Rubix + FM) and
// the analytic TRH-D of recursive vs fractal mitigation for AutoRFMTH of
// 4, 5, 6 and 8.
func Table6(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	tm := clk.DDR5()
	ths := []int{4, 5, 6, 8}
	variants := make([]func(*sim.Config), len(ths))
	for i, th := range ths {
		variants[i] = mech(dram.ModeAutoRFM, th, "rubix")
	}
	g, err := runGrid(sc, profiles, variants...)
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("AutoRFMTH", "Slowdown(%)", "Recursive TRH-D", "Fractal TRH-D")
	summary := map[string]float64{}
	for i, th := range ths {
		_, rm := analytic.MINTThreshold(th, true, tm, analytic.MTTFTarget)
		_, fm := analytic.MINTThreshold(th, false, tm, analytic.MTTFTarget)
		m, ok := g.mean(g.slowdownCol(base, i))
		tbl.Add(th, cell(m, ok), rm, fm)
		if ok {
			summary[fmt.Sprintf("autorfm%d_slowdown_pct", th)] = m
		}
		summary[fmt.Sprintf("autorfm%d_trhd_fm", th)] = fm
		summary[fmt.Sprintf("autorfm%d_trhd_rm", th)] = rm
	}
	return Result{ID: "tab6", Title: "Slowdown and tolerated threshold", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Fig13 regenerates Figure 13: average slowdown of PRAC+ABO, RFM, and
// AutoRFM as the tolerated threshold is varied. For each threshold the
// mitigation interval is derived from the analytic model; RFM points below
// its reachable range are omitted (the paper's RFM curve stops near 180).
func Fig13(sc Scale) (Result, error) {
	tm := clk.DDR5()
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	// The sweep is expensive (3 mechanisms × 7 thresholds × workloads); a
	// representative cross-suite subset keeps it tractable at quick scale.
	if len(profiles) > 7 {
		sc.Workloads = []string{"bwaves", "lbm", "mcf", "omnetpp", "pagerank", "bfs", "copy"}
		if profiles, err = sc.profiles(); err != nil {
			return Result{}, err
		}
	}
	thresholds := []float64{74, 100, 161, 250, 356, 500, 702}
	// Each threshold's row holds the variant behind each mechanism's cell,
	// or none where the mechanism cannot reach the threshold.
	const none = base - 1
	var variants []func(*sim.Config)
	add := func(v func(*sim.Config)) int {
		variants = append(variants, v)
		return len(variants) - 1
	}
	rows := make([][3]int, len(thresholds))
	for i, trhd := range thresholds {
		// PRAC+ABO: inflated timings always; ABO threshold scales with TRH.
		eth := max(int(trhd/2), 8)
		rows[i] = [3]int{add(func(c *sim.Config) { c.Mode = dram.ModePRAC; c.PRACETh = eth }), none, none}
		// RFM: the largest window whose recursive-mitigation threshold is
		// still below trhd.
		if w := analytic.WindowForThreshold(trhd, true, tm, analytic.MTTFTarget); w >= 2 {
			rows[i][1] = add(mech(dram.ModeRFM, w, ""))
		}
		// AutoRFM with Rubix + FM.
		if w := analytic.WindowForThreshold(trhd, false, tm, analytic.MTTFTarget); w >= 2 {
			rows[i][2] = add(mech(dram.ModeAutoRFM, w, "rubix"))
		}
	}
	g, err := runGrid(sc, profiles, variants...)
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("TRH-D", "PRAC(%)", "RFM(%)", "AutoRFM(%)")
	summary := map[string]float64{}
	for i, trhd := range thresholds {
		row := []interface{}{trhd}
		for m, name := range []string{"prac", "rfm", "autorfm"} {
			if rows[i][m] == none {
				row = append(row, "n/a")
				continue
			}
			sd, ok := g.mean(g.slowdownCol(base, rows[i][m]))
			row = append(row, cell(sd, ok))
			if ok {
				summary[fmt.Sprintf("%s_at_%0.f", name, trhd)] = sd
			}
		}
		tbl.Add(row...)
	}
	return Result{ID: "fig13", Title: "PRAC vs RFM vs AutoRFM across thresholds", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

// Fig17 regenerates Appendix C / Figure 17: the average slowdown of RFM on
// a Zen-mapped system versus a Rubix-mapped system, each normalised to its
// own no-RFM baseline. Rubix's extra activations make RFM slightly worse.
func Fig17(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	const rubix = 0 // the Rubix-mapped no-RFM baseline
	g, err := runGrid(sc, profiles,
		mech(dram.ModeNone, 0, "rubix"),
		mech(dram.ModeRFM, 4, ""), mech(dram.ModeRFM, 4, "rubix"),
		mech(dram.ModeRFM, 8, ""), mech(dram.ModeRFM, 8, "rubix"))
	if err != nil {
		return Result{}, err
	}
	extra, eok := g.mean(func(wi int) (float64, bool) {
		zBase, zok := g.result(wi, base)
		rBase, rok := g.result(wi, rubix)
		return (float64(rBase.MC.Acts)/float64(zBase.MC.Acts) - 1) * 100, zok && rok
	})
	tbl := stats.NewTable("RFMTH", "Zen RFM slow(%)", "Rubix RFM slow(%)", "Rubix extra ACTs(%)")
	summary := map[string]float64{}
	for _, row := range []struct{ th, zen, rbx int }{{4, 1, 2}, {8, 3, 4}} {
		zm, zok := g.mean(g.slowdownCol(base, row.zen))
		rm, rok := g.mean(g.slowdownCol(rubix, row.rbx))
		tbl.Add(row.th, cell(zm, zok), cell(rm, rok), cell(extra, eok))
		if zok {
			summary[fmt.Sprintf("zen_rfm%d_pct", row.th)] = zm
		}
		if rok {
			summary[fmt.Sprintf("rubix_rfm%d_pct", row.th)] = rm
		}
		if eok {
			summary[fmt.Sprintf("rubix_extra_acts_pct_th%d", row.th)] = extra
		}
	}
	return Result{ID: "fig17", Title: "Impact of RFM on Rubix vs Zen", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
