package exp

import (
	"autorfm/internal/dram"
	"autorfm/internal/power"
	"autorfm/internal/sim"
	"autorfm/internal/stats"
)

// activity converts a simulation result into the power model's input.
func activity(r sim.Result) power.Activity {
	return power.Activity{
		Acts:            r.MC.Acts,
		ColumnOps:       r.MC.Reads + r.MC.Writes,
		REFs:            r.MC.REFs,
		VictimRefreshes: r.Dev.VictimRefreshes,
		Elapsed:         r.Elapsed,
	}
}

// Fig12 regenerates Figure 12: average DRAM channel power for the baseline
// (Zen, no mitigation), standalone Rubix, AutoRFM-8 and AutoRFM-4, split
// into the paper's four components. The paper reports Rubix adding ≈36mW of
// activation power and AutoRFM-8/4 adding ≈28/55mW of mitigation power.
func Fig12(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	g, err := runGrid(sc, profiles,
		mech(dram.ModeNone, 0, "rubix"),
		mech(dram.ModeAutoRFM, 8, "rubix"),
		mech(dram.ModeAutoRFM, 4, "rubix"))
	if err != nil {
		return Result{}, err
	}
	params := power.DDR5Params()
	tbl := stats.NewTable("Config", "ACT+RW(mW)", "Other(mW)", "Refresh(mW)", "Mitig(mW)", "Total(mW)")
	summary := map[string]float64{}
	for _, row := range []struct {
		name string
		col  int
	}{{"baseline", base}, {"rubix", 0}, {"autorfm-8", 1}, {"autorfm-4", 2}} {
		var act, oth, ref, mit, tot []float64
		for wi := range profiles {
			r, ok := g.result(wi, row.col)
			if !ok {
				continue
			}
			b := power.Compute(params, activity(r))
			act = append(act, b.ACTRW*1000)
			oth = append(oth, b.Other*1000)
			ref = append(ref, b.Refresh*1000)
			mit = append(mit, b.Mitigation*1000)
			tot = append(tot, b.Total()*1000)
		}
		ok := len(tot) > 0
		am, _ := meanValid(act)
		om, _ := meanValid(oth)
		rm, _ := meanValid(ref)
		mm, _ := meanValid(mit)
		tm, _ := meanValid(tot)
		tbl.Add(row.name, cell(am, ok), cell(om, ok), cell(rm, ok), cell(mm, ok), cell(tm, ok))
		if ok {
			summary[row.name+"_total_mw"] = tm
			summary[row.name+"_mitig_mw"] = mm
			summary[row.name+"_actrw_mw"] = am
		}
	}
	for name, key := range map[string]string{
		"autorfm-4": "autorfm4_overhead_mw",
		"autorfm-8": "autorfm8_overhead_mw",
		"rubix":     "rubix_overhead_mw",
	} {
		t, ok1 := summary[name+"_total_mw"]
		b, ok2 := summary["baseline_total_mw"]
		if ok1 && ok2 {
			summary[key] = t - b
		}
	}
	return Result{ID: "fig12", Title: "DRAM power breakdown", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}
