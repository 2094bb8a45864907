package exp

import (
	"os"
	"path/filepath"
	"testing"

	"autorfm/internal/runner"
)

// TestGoldenReports pins the rendered report of every registered experiment
// at tinyScale to testdata/golden_<id>.txt. All experiments share one pool,
// as a sweep does, so later ones read earlier ones' cached jobs. Unlike the
// mode-against-mode identity tests, this catches a change that shifts every
// execution path alike. The test never rewrites the files.
func TestGoldenReports(t *testing.T) {
	sc := tinyScale()
	sc.Pool = runner.New(2)
	for _, e := range All() {
		got := run(t, e.Run, sc).String()
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+e.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s report differs from its golden:\n--- got ---\n%s--- want ---\n%s", e.ID, got, want)
		}
	}
}
