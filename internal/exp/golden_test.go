package exp

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
)

// TestGoldenReports pins the rendered report of every registered experiment
// at tinyScale to testdata/golden_<id>.txt. All experiments share one pool,
// as a sweep does, so later ones read earlier ones' cached jobs. Unlike the
// mode-against-mode identity tests, this catches a change that shifts every
// execution path alike. The test never rewrites the files.
func TestGoldenReports(t *testing.T) {
	checkGoldens(t, tinyScale(), "golden_")
}

// TestGoldenChaosReports pins the same reports with chaos injection killing
// about a third of the simulation jobs, to testdata/chaos_<id>.txt. It
// covers what the fault-free goldens cannot: which cells render ERR, how
// averages skip the dead profiles, and the failure footnotes (sorted, one
// per failed job, whatever order the experiment submitted its jobs in).
func TestGoldenChaosReports(t *testing.T) {
	sc := tinyScale()
	sc.Fault = fault.Config{ChaosProb: 0.3, Seed: 1}
	checkGoldens(t, sc, "chaos_")
}

// checkGoldens runs every experiment at sc through one shared pool and
// compares each report with testdata/<prefix><id>.txt.
func checkGoldens(t *testing.T, sc Scale, prefix string) {
	t.Helper()
	sc.Pool = runner.New(2)
	for _, e := range All() {
		got := run(t, e.Run, sc).String()
		want, err := os.ReadFile(filepath.Join("testdata", prefix+e.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s report differs from its golden:\n--- got ---\n%s--- want ---\n%s", e.ID, got, want)
		}
	}
}

// recorder is a Runner that keeps every job submitted through it.
type recorder struct {
	Runner
	jobs []sim.Config
}

func (r *recorder) RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error) {
	r.jobs = append(r.jobs, cfgs...)
	return r.Runner.RunAll(ctx, cfgs)
}

// TestJobLabelsUnique: within every experiment's grid, two jobs share a
// failure-footnote label only if they share a memoization key, so each
// footnote names one job.
func TestJobLabelsUnique(t *testing.T) {
	sc := tinyScale()
	sc.Instructions = 2_000
	sc.AttackActs = 20_000
	rec := &recorder{Runner: runner.New(2)}
	sc.Pool = rec
	for _, e := range All() {
		rec.jobs = nil
		run(t, e.Run, sc)
		keys := map[string]string{}
		for _, job := range rec.jobs {
			label, key := jobLabel(job), job.Key()
			if prev, ok := keys[label]; ok && prev != key {
				t.Errorf("%s: two jobs share the label %q:\n  %s\n  %s", e.ID, label, prev, key)
			}
			keys[label] = key
		}
	}
}
