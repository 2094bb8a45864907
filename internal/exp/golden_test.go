package exp

import (
	"os"
	"path/filepath"
	"testing"

	"autorfm/internal/fault"
	"autorfm/internal/runner"
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
