package exp

import (
	"fmt"

	"autorfm/internal/dram"
	"autorfm/internal/sim"
	"autorfm/internal/stats"
)

// Ablations quantifies the design choices behind AutoRFM's headline number
// (Section IV and the DESIGN.md inventory):
//
//   - ALERT retry wait: the paper guarantees a declined ACT succeeds after
//     the 200ns mitigation time; waiting longer than necessary directly
//     inflates the conflict penalty.
//   - RFM scheduling (RAAMaxFactor): deferring RFM commands to bank-idle
//     time (up to the DDR5 RAAmax ceiling) instead of issuing them eagerly
//     in front of queued demand is what keeps RFM's mid-threshold costs
//     moderate.
//   - Memory mapping: page-in-row (maximum locality) vs AMD-Zen vs Rubix
//     under AutoRFM-4 — the Section IV-E spectrum from pathological
//     subarray conflicts to the 1/256 floor.
//   - Prefetching: disabling the stream prefetcher removes the page-buddy
//     timing correlation, which is the mechanism behind the Zen mapping's
//     elevated ALERT rate.
func Ablations(sc Scale) (Result, error) {
	profiles, err := sc.profiles()
	if err != nil {
		return Result{}, err
	}
	if len(profiles) > 6 {
		sc.Workloads = []string{"bwaves", "lbm", "parest", "mcf", "pagerank", "copy"}
		if profiles, err = sc.profiles(); err != nil {
			return Result{}, err
		}
	}

	// One table row per variant. Each row renders the variant's mean
	// slowdown and ALERT/ACT over the baseline (or 0 where the ablation
	// does not measure it) and records the named means in the summary.
	type ablation struct {
		name, label         string
		variant             func(*sim.Config)
		sdKey, alKey        string // summary keys ("" = not recorded)
		noSlowdown, noAlert bool
	}
	autoRFM4 := func(mut func(*sim.Config)) func(*sim.Config) {
		return func(c *sim.Config) {
			mech(dram.ModeAutoRFM, 4, "")(c)
			mut(c)
		}
	}
	var rows []ablation

	// 1. ALERT retry wait (AutoRFM-4, Zen mapping to keep conflicts common).
	for _, wait := range []int64{200, 400, 800} {
		rows = append(rows, ablation{name: "retry-wait", label: fmt.Sprintf("%dns", wait),
			variant: autoRFM4(func(c *sim.Config) { c.RetryWaitNS = wait }),
			sdKey:   fmt.Sprintf("retry%d_slowdown", wait)})
	}
	// 2. RFM scheduling: eager vs deferred (RFM-8).
	for _, f := range []int{1, 4, 8} {
		rows = append(rows, ablation{name: "rfm-schedule", label: fmt.Sprintf("raamax=%dx", f),
			variant: func(c *sim.Config) {
				mech(dram.ModeRFM, 8, "")(c)
				c.RAAMaxFactor = f
			},
			sdKey: fmt.Sprintf("raamax%d_slowdown", f), noAlert: true})
	}
	// 3. Mapping spectrum under AutoRFM-4.
	for _, m := range []string{"page-in-row", "amd-zen", "rubix"} {
		rows = append(rows, ablation{name: "mapping", label: m,
			variant: mech(dram.ModeAutoRFM, 4, m),
			sdKey:   "map_" + m + "_slowdown", alKey: "map_" + m + "_alert_pct"})
	}
	// 4. Prefetcher off: the page-buddy correlation disappears.
	for _, deg := range []int{-1, 0} { // -1 = disabled, 0 = default(40)
		label := "on(40)"
		if deg < 0 {
			label = "off"
		}
		rows = append(rows, ablation{name: "prefetch", label: label,
			variant: autoRFM4(func(c *sim.Config) { c.PrefetchDegree = deg }),
			alKey:   "prefetch_" + label + "_alert_pct", noSlowdown: true})
	}

	variants := make([]func(*sim.Config), len(rows))
	for i, a := range rows {
		variants[i] = a.variant
	}
	g, err := runGrid(sc, profiles, variants...)
	if err != nil {
		return Result{}, err
	}
	tbl := stats.NewTable("Ablation", "Variant", "Avg slowdown(%)", "Avg ALERT/ACT(%)")
	summary := map[string]float64{}
	for i, a := range rows {
		// The ALERT rate is defined exactly where the slowdown is.
		sd, ok := g.mean(g.slowdownCol(base, i))
		al, _ := g.mean(g.alertCol(i))
		sdCell, alCell := cell(sd, ok), cell(al, ok)
		if a.noSlowdown {
			sdCell = 0.0
		}
		if a.noAlert {
			alCell = 0.0
		}
		tbl.Add(a.name, a.label, sdCell, alCell)
		if ok && a.sdKey != "" {
			summary[a.sdKey] = sd
		}
		if ok && a.alKey != "" {
			summary[a.alKey] = al
		}
	}
	return Result{ID: "ablate", Title: "Design-choice ablations", Table: tbl,
		Summary: summary, Failures: g.failures()}, nil
}
