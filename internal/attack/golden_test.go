package attack

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenReports pins the audit Report of every {tracker} × {pattern}
// cell at 20k attacker ACTs to the sha256 of its JSON, as recorded in
// testdata/golden.txt. The defence is the paper's AutoRFM-4 with Fractal
// Mitigation at TRH-D 74, plus one recursive-policy cell. The test never
// rewrites the file.
func TestGoldenReports(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			i := strings.LastIndexByte(line, ' ')
			want[line[:i]] = line[i+1:]
		}
	}
	f.Close()

	patterns := []func() Pattern{
		func() Pattern { return HalfDouble(64 * 1024) },
		func() Pattern { return DoubleSided(90_000) },
		func() Pattern { return Circular(100_000, 4) },
		func() Pattern { return Fuzzed(110_000, 64, 1) },
	}
	var got []string
	check := func(label string, cfg Config, p Pattern) {
		rep, err := Run(cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(b))
		got = append(got, label+" "+sum)
		if want[label] != sum {
			t.Errorf("%s: digest %s, golden %q (report %+v)", label, sum, want[label], rep)
		}
	}
	for _, trk := range []string{"mint", "pride", "mithril", "graphene", "twice"} {
		for _, mk := range patterns {
			p := mk()
			check(trk+"/"+p.Name, Config{TH: 4, Policy: "fractal", Tracker: trk, TRHD: 74, Acts: 20_000, Seed: 1}, p)
		}
	}
	// MINT's reserved transitive slot, under the recursive policy at its
	// TRH-D of 96.
	check("recursive/mint/half-double",
		Config{TH: 4, Policy: "recursive", Tracker: "mint", TRHD: 96, Acts: 20_000, Seed: 1}, HalfDouble(64*1024))
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the matrix has %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("computed digests:\n%s", strings.Join(got, "\n"))
	}
}
