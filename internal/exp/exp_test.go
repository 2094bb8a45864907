package exp

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// tinyScale keeps the per-test cost low: a cross-suite subset of workloads
// and short slices.
func tinyScale() Scale {
	return Scale{
		Instructions: 60_000,
		Workloads:    []string{"bwaves", "mcf", "pagerank", "copy"},
		AttackActs:   300_000,
		Seed:         1,
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure from the paper's evaluation must be present,
	// plus the fault-injection study.
	for _, want := range []string{"fig1d", "fig3", "tab3", "tab5", "fig8", "tab6",
		"fig11", "fig12", "fig13", "fig14", "fig16", "fig17", "fig18", "appb",
		"ablate", "fault"} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	if _, ok := ByID("fig3"); !ok {
		t.Error("ByID(fig3) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

func TestFig3Shape(t *testing.T) {
	r := run(t, Fig3, tinyScale())
	if len(r.Table.Rows) != 5 { // 4 workloads + AVERAGE
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	s4 := r.Summary["rfm4_avg_slowdown_pct"]
	s32 := r.Summary["rfm32_avg_slowdown_pct"]
	if s4 <= s32 {
		t.Fatalf("RFM-4 (%.1f) not worse than RFM-32 (%.1f)", s4, s32)
	}
	if s4 < 10 {
		t.Errorf("RFM-4 avg %.1f%%, expected severe", s4)
	}
}

func TestTable3Analytic(t *testing.T) {
	r := run(t, Table3, Scale{})
	for w, paper := range map[int]float64{4: 96, 8: 182, 16: 356, 32: 702} {
		got := r.Summary[keyf("trhd_w%d", w)]
		if got < paper*0.9 || got > paper*1.1 {
			t.Errorf("w=%d: TRH-D %.0f vs paper %.0f", w, got, paper)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	r := run(t, Fig8, tinyScale())
	if r.Summary["zen_alert_per_act_pct"] <= r.Summary["rubix_alert_per_act_pct"] {
		t.Fatal("Zen mapping did not have more alerts than Rubix")
	}
	if r.Summary["rubix_avg_slowdown_pct"] > 8 {
		t.Fatalf("Rubix AutoRFM-4 slowdown %.1f%% too high", r.Summary["rubix_avg_slowdown_pct"])
	}
}

func TestFig11Shape(t *testing.T) {
	r := run(t, Fig11, tinyScale())
	if r.Summary["autorfm4_avg_pct"] >= r.Summary["rfm4_avg_pct"] {
		t.Fatal("AutoRFM-4 not better than RFM-4")
	}
	if r.Summary["autorfm8_avg_pct"] >= r.Summary["rfm8_avg_pct"] {
		t.Fatal("AutoRFM-8 not better than RFM-8")
	}
}

func TestFig12Shape(t *testing.T) {
	r := run(t, Fig12, tinyScale())
	if r.Summary["autorfm4_overhead_mw"] <= r.Summary["autorfm8_overhead_mw"] {
		t.Fatal("AutoRFM-4 power overhead not above AutoRFM-8")
	}
	if r.Summary["autorfm-4_mitig_mw"] <= 0 {
		t.Fatal("AutoRFM-4 shows no mitigation power")
	}
	if r.Summary["baseline_total_mw"] < 200 || r.Summary["baseline_total_mw"] > 2500 {
		t.Fatalf("baseline power %.0f mW out of range", r.Summary["baseline_total_mw"])
	}
}

func TestFig14Monotone(t *testing.T) {
	r := run(t, Fig14, Scale{})
	if r.Summary["fm_w4"] >= r.Summary["rm_w4"] {
		t.Fatal("FM threshold not below RM at w=4")
	}
	if r.Summary["fm_w4"] >= r.Summary["fm_w32"] {
		t.Fatal("threshold not increasing with window")
	}
}

func TestFig16Summary(t *testing.T) {
	r := run(t, Fig16, Scale{})
	if got := r.Summary["fm_min_safe_trhd"]; got < 50 || got > 54 {
		t.Fatalf("fm_min_safe_trhd = %.1f, want ≈52", got)
	}
	if r.Summary["mixed_over_direct"] >= 1 {
		t.Fatal("mixed attack should be weaker than direct")
	}
}

func TestFig18Ordering(t *testing.T) {
	r := run(t, Fig18, Scale{AttackActs: 500_000, Seed: 1})
	if r.Summary["mint_th4"] > r.Summary["pride_th4"]*1.02 {
		t.Fatalf("MINT TRH-D %.0f above PrIDE %.0f", r.Summary["mint_th4"], r.Summary["pride_th4"])
	}
	if r.Summary["mint_th4"] >= r.Summary["mint_th8"] {
		t.Fatal("TH-4 threshold not below TH-8")
	}
	// Paper: all trackers sub-125 at AutoRFMTH-4.
	if r.Summary["pride_th4"] > 125 {
		t.Errorf("PrIDE TRH-D %.0f not sub-125", r.Summary["pride_th4"])
	}
}

func TestAppBAudit(t *testing.T) {
	r := run(t, AppB, Scale{AttackActs: 400_000, Seed: 1})
	if r.Summary["baseline_half-double_failures"] == 0 {
		t.Fatal("baseline policy survived Half-Double in audit")
	}
	if r.Summary["fractal_half-double_failures"] != 0 {
		t.Fatal("fractal policy failed Half-Double in audit")
	}
	if r.Summary["recursive_half-double_failures"] != 0 {
		t.Fatal("recursive policy failed Half-Double in audit")
	}
}

func TestResultString(t *testing.T) {
	r := run(t, Table3, Scale{})
	s := r.String()
	if !strings.Contains(s, "tab3") || !strings.Contains(s, "Window") {
		t.Fatalf("render:\n%s", s)
	}
}

func keyf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

func TestAblationsShape(t *testing.T) {
	sc := tinyScale()
	r := run(t, Ablations, sc)
	// Longer retry waits must hurt more.
	if r.Summary["retry200_slowdown"] >= r.Summary["retry800_slowdown"] {
		t.Fatal("retry-wait ablation not monotone")
	}
	// Eager RFM (raamax=1) must be worse than deferred.
	if r.Summary["raamax1_slowdown"] <= r.Summary["raamax4_slowdown"] {
		t.Fatal("eager RFM not worse than deferred")
	}
	// Mapping spectrum: page-in-row ≥ zen ≥ rubix alerts.
	if !(r.Summary["map_page-in-row_alert_pct"] > r.Summary["map_amd-zen_alert_pct"] &&
		r.Summary["map_amd-zen_alert_pct"] > r.Summary["map_rubix_alert_pct"]) {
		t.Fatalf("mapping alert spectrum wrong: %v / %v / %v",
			r.Summary["map_page-in-row_alert_pct"],
			r.Summary["map_amd-zen_alert_pct"],
			r.Summary["map_rubix_alert_pct"])
	}
}

// microScale is the cheapest possible configuration for smoke-testing the
// expensive sweep experiments.
func microScale() Scale {
	return Scale{
		Instructions: 40_000,
		Workloads:    []string{"lbm", "bfs"},
		AttackActs:   200_000,
		Seed:         1,
	}
}

func TestTable5Reports(t *testing.T) {
	r := run(t, Table5, microScale())
	if len(r.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Table.Rows))
	}
	if r.Summary["mean_actpki_error_pct"] > 40 {
		t.Fatalf("ACT-PKI error %.1f%% implausible even at micro scale",
			r.Summary["mean_actpki_error_pct"])
	}
}

func TestFig1dPairsThresholdsWithSlowdowns(t *testing.T) {
	r := run(t, Fig1d, microScale())
	if r.Summary["trhd_rfm4"] >= r.Summary["trhd_rfm32"] {
		t.Fatal("threshold not increasing with RFMTH")
	}
	if r.Summary["slowdown_rfm4"] <= r.Summary["slowdown_rfm32"] {
		t.Fatal("slowdown not decreasing with RFMTH")
	}
}

func TestTable6Shape(t *testing.T) {
	r := run(t, Table6, microScale())
	for _, th := range []int{4, 5, 6, 8} {
		fm := r.Summary[keyf("autorfm%d_trhd_fm", th)]
		rm := r.Summary[keyf("autorfm%d_trhd_rm", th)]
		if fm >= rm {
			t.Fatalf("th=%d: FM %.0f ≥ RM %.0f", th, fm, rm)
		}
	}
	if r.Summary["autorfm4_trhd_fm"] > 75 {
		t.Fatalf("AutoRFMTH-4 FM threshold %.1f, want ≈74", r.Summary["autorfm4_trhd_fm"])
	}
}

func TestFig13Crossovers(t *testing.T) {
	r := run(t, Fig13, microScale())
	// RFM must blow up at low thresholds and approach zero at high ones.
	if r.Summary["rfm_at_100"] <= r.Summary["rfm_at_702"] {
		t.Fatal("RFM curve not decreasing with threshold")
	}
	// AutoRFM stays flat and low across the sweep.
	for _, th := range []string{"74", "161", "356", "702"} {
		if v := r.Summary["autorfm_at_"+th]; v > 10 {
			t.Fatalf("AutoRFM at TRH-D %s = %.1f%%, want flat/low", th, v)
		}
	}
	// PRAC is threshold-independent (identical at both ends).
	if r.Summary["prac_at_74"] != r.Summary["prac_at_702"] {
		t.Fatal("PRAC floor varies with threshold")
	}
}

func TestFig17RubixWorseForRFM(t *testing.T) {
	r := run(t, Fig17, microScale())
	if r.Summary["rubix_rfm4_pct"] <= r.Summary["zen_rfm4_pct"] {
		t.Fatalf("RFM-4 on Rubix (%.1f%%) not worse than on Zen (%.1f%%)",
			r.Summary["rubix_rfm4_pct"], r.Summary["zen_rfm4_pct"])
	}
	if r.Summary["rubix_extra_acts_pct_th4"] <= 0 {
		t.Fatal("Rubix did not add activations")
	}
}

func TestFig18MithrilAudit(t *testing.T) {
	r := run(t, Fig18, Scale{AttackActs: 400_000, Seed: 2})
	// The audit must report a meaningful (non-trivial) max-activation count
	// that grows with the mitigation interval.
	m4 := r.Summary["mithril_maxacts_th4"]
	m8 := r.Summary["mithril_maxacts_th8"]
	if m4 < 4 || m8 <= m4 {
		t.Fatalf("mithril audit: th4=%v th8=%v", m4, m8)
	}
}

// run executes an experiment generator, failing the test on error.
func run(t *testing.T, f func(Scale) (Result, error), sc Scale) Result {
	t.Helper()
	r, err := f(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestUnknownWorkloadIsError: a bad workload name must surface as an error
// naming the valid workloads, not as a panic.
func TestUnknownWorkloadIsError(t *testing.T) {
	sc := tinyScale()
	sc.Workloads = append(sc.Workloads, "nope")
	err := sc.Validate()
	if err == nil {
		t.Fatal("Validate accepted unknown workload")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "bwaves") {
		t.Fatalf("error does not name the offender and the valid workloads: %v", err)
	}
	if _, err := Fig3(sc); err == nil {
		t.Fatal("Fig3 accepted unknown workload")
	}
	if _, err := Ablations(sc); err == nil {
		t.Fatal("Ablations accepted unknown workload")
	}
}

// TestSerialParallelIdentical is the engine's determinism gate: the same
// experiment run through a pool of one worker (serial) and one of eight
// must render byte-identical tables and summaries. CI runs this under
// -race, which additionally proves no shared mutable state leaks across
// concurrently executing simulations.
func TestSerialParallelIdentical(t *testing.T) {
	for _, id := range []string{"fig3", "tab6", "fig17"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		serial, parallel := microScale(), microScale()
		serial.Jobs = 1
		parallel.Jobs = 8
		a := run(t, e.Run, serial)
		b := run(t, e.Run, parallel)
		if a.String() != b.String() {
			t.Errorf("%s: -j 1 and -j 8 outputs differ:\n--- serial ---\n%s--- parallel ---\n%s",
				id, a, b)
		}
	}
}

// TestFaultExperimentDegrades: injected faults must weaken the trackers —
// the tolerated TRH-D rises (worse protection) under the combined scenario
// — and the simulated drop scenario must lose victim refreshes.
func TestFaultExperimentDegrades(t *testing.T) {
	sc := microScale()
	r := run(t, Fault, sc)
	if len(r.Failures) != 0 {
		t.Fatalf("clean fault sweep reported failures: %v", r.Failures)
	}
	clean, ok := r.Summary["mint_trhd_none"]
	if !ok || clean <= 0 {
		t.Fatalf("missing clean MINT threshold: %v", r.Summary)
	}
	if comb := r.Summary["mint_trhd_combined"]; comb <= clean {
		t.Fatalf("combined faults did not raise MINT's tolerated TRH-D: %.1f vs %.1f", comb, clean)
	}
	if comb := r.Summary["pride_trhd_combined"]; comb <= r.Summary["pride_trhd_none"] {
		t.Fatalf("combined faults did not raise PrIDE's tolerated TRH-D: %.1f vs %.1f",
			comb, r.Summary["pride_trhd_none"])
	}
	vrClean := r.Summary["sim_victim_refreshes_none"]
	vrDrop := r.Summary["sim_victim_refreshes_drop_mit_10"]
	if vrClean <= 0 || vrDrop >= vrClean {
		t.Fatalf("dropped mitigations did not lose victim refreshes: %v vs clean %v", vrDrop, vrClean)
	}
	// Deterministic: a rerun renders the identical table.
	if again := run(t, Fault, sc); again.String() != r.String() {
		t.Fatal("fault experiment is not deterministic")
	}
}

// TestChaosSweepRendersERR: with chaos injection killing a strict subset of
// jobs (seed 1 kills exactly lbm at this scale), the experiment must still
// emit the surviving rows, mark the dead ones ERR, and footnote the cause.
func TestChaosSweepRendersERR(t *testing.T) {
	sc := microScale() // lbm + bfs
	sc.Fault = fault.Config{ChaosProb: 0.5, Seed: 1}
	r := run(t, Table5, sc)
	s := r.String()
	if !strings.Contains(s, "ERR") {
		t.Fatalf("no ERR cell rendered:\n%s", s)
	}
	if !strings.Contains(s, "bfs") {
		t.Fatalf("surviving row missing:\n%s", s)
	}
	if len(r.Failures) != 1 || !strings.Contains(r.Failures[0], "chaos panic") {
		t.Fatalf("failures = %v, want one chaos-panic footnote", r.Failures)
	}
	if !strings.Contains(s, "failures:") {
		t.Fatalf("failure footnote not rendered:\n%s", s)
	}
	// The surviving workload's metrics must still be real numbers.
	if _, ok := r.Summary["mean_actpki_error_pct"]; !ok {
		t.Fatal("survivors contributed no summary metrics")
	}
}

// TestResumeByteIdentical is the checkpoint/resume gate: a sweep cancelled
// mid-run, resumed from its JSON-lines store file in a fresh pool, must
// render output byte-identical to an uninterrupted run — with the stored
// jobs served from the store, not re-simulated.
func TestResumeByteIdentical(t *testing.T) {
	golden := run(t, Fig3, microScale())

	// Interrupted run: store every completed job, cancel once a few have
	// landed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	istore, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := microScale()
	ipool := runner.New(2)
	interrupted.Pool = ipool
	ipool.Store = istore
	ipool.OnProgress = func(p runner.Progress) {
		if p.Done >= 3 {
			cancel()
		}
	}
	interrupted.Context = ctx
	if _, err := Fig3(interrupted); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	istore.Close()

	// Resumed run: fresh pool on the reopened store file.
	rstore, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rstore.Close()
	n := rstore.Len()
	if n == 0 {
		t.Fatal("no records stored before cancellation")
	}
	resumed := microScale()
	rpool := runner.New(2)
	resumed.Pool = rpool
	rpool.Store = rstore
	r := run(t, Fig3, resumed)
	if r.String() != golden.String() {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- golden ---\n%s--- resumed ---\n%s",
			golden, r)
	}
	if hits, _ := rpool.CacheStats(); hits < n {
		t.Fatalf("resumed run served %d cache hits, want at least the %d loaded", hits, n)
	}
}

// TestFailureFootnoteRendering: the ERR footnotes distinguish failure
// causes — a typed per-job timeout renders as "timeout after Xs", a
// recovered panic keeps its "job panicked:" prefix, and any other error
// falls through verbatim; one failure behind several cells is footnoted
// once. Table-driven over jobSet.failures, the single place every
// experiment's footnotes are produced.
func TestFailureFootnoteRendering(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	job := sim.Config{Workload: prof, Mode: dram.ModeAutoRFM, TH: 4, Tracker: "mint"}
	label := jobLabel(job)
	cases := []struct {
		name string
		err  error
		want string // expected footnote ("" = no footnote)
	}{
		{name: "success", err: nil, want: ""},
		{
			name: "job timeout",
			err:  &runner.TimeoutError{Key: job.Key(), Limit: 30 * time.Second},
			want: label + ": timeout after 30s",
		},
		{
			name: "sub-second timeout",
			err:  &runner.TimeoutError{Limit: 1500 * time.Millisecond},
			want: label + ": timeout after 1.5s",
		},
		{
			name: "panic",
			err:  &runner.PanicError{Key: job.Key(), Value: "boom"},
			want: label + ": job panicked: boom",
		},
		{
			name: "generic error",
			err:  errors.New("sim: unknown mechanism 42"),
			want: label + ": sim: unknown mechanism 42",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			js := jobSet{
				jobs: []sim.Config{job},
				res:  make([]sim.Result, 1),
				errs: []error{tc.err},
			}
			got := js.failures()
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("failures() = %v, want none", got)
				}
				return
			}
			if len(got) != 1 || got[0] != tc.want {
				t.Fatalf("failures() = %v, want [%q]", got, tc.want)
			}
		})
	}
	// The same cached failure backing two cells is footnoted once.
	boom := &runner.PanicError{Key: job.Key(), Value: "boom"}
	js := jobSet{jobs: []sim.Config{job, job}, res: make([]sim.Result, 2), errs: []error{boom, boom}}
	if got := js.failures(); len(got) != 1 {
		t.Fatalf("two cells of one failed job: failures() = %v, want one footnote", got)
	}
}

// TestSharedPoolCachesAcrossExperiments: experiments handed the same pool
// must reuse each other's simulations (here: Table5's per-workload
// baselines were all already run by Fig3).
func TestSharedPoolCachesAcrossExperiments(t *testing.T) {
	sc := microScale()
	pool := runner.New(2)
	sc.Pool = pool
	run(t, Fig3, sc)
	_, missesBefore := pool.CacheStats()
	run(t, Table5, sc)
	hits, misses := pool.CacheStats()
	if misses != missesBefore {
		t.Errorf("Table5 re-simulated %d cached baselines", misses-missesBefore)
	}
	if hits == 0 {
		t.Error("shared pool recorded no cache hits")
	}
}
