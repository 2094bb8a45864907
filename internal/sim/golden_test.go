package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/workload"
)

// diffProfile returns a named built-in workload profile for the golden and
// reuse tests.
func diffProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// diffConfigs is the mode/feature matrix the golden digests cover: every
// mitigation mode, fault injection, both default and non-default trackers,
// and MINT's reserved transitive slot under the recursive policy — small
// but representative runs that exercise prefetch streams, window
// mitigations, REFs and writebacks.
func diffConfigs() []Config {
	return []Config{
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 12_000, Mode: dram.ModeAutoRFM, TH: 4},
		{Workload: diffProfile("lbm"), InstructionsPerCore: 12_000, Mode: dram.ModeRFM, TH: 32},
		{Workload: diffProfile("bfs"), InstructionsPerCore: 12_000, Mode: dram.ModePRAC, PRACETh: 16},
		{Workload: diffProfile("bwaves"), InstructionsPerCore: 12_000, Mode: dram.ModeNone},
		{Workload: diffProfile("mcf"), InstructionsPerCore: 8_000, Mode: dram.ModeAutoRFM, TH: 4,
			Tracker: "graphene", Policy: "recursive"},
		{Workload: diffProfile("lbm"), InstructionsPerCore: 8_000, Mode: dram.ModeAutoRFM, TH: 4,
			Fault: fault.Config{Seed: 7, TrackerBitFlipProb: 0.01, DropMitigationProb: 0.05}},
		{Workload: diffProfile("lbm"), InstructionsPerCore: 8_000, Mode: dram.ModeAutoRFM, TH: 4,
			Policy: "recursive"},
	}
}

// TestGoldenResults pins every Result of the diffConfigs matrix × seeds 1–8
// to the sha256 of its canonical JSON, as recorded in testdata/golden.txt.
// Any change to what a run computes — not only to what it reports — breaks
// a digest. The test never rewrites the file.
func TestGoldenResults(t *testing.T) {
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

	var got []string
	for ci, base := range diffConfigs() {
		for seed := uint64(1); seed <= 8; seed++ {
			cfg := base
			cfg.Seed = seed
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("config %d seed %d: %v", ci, seed, err)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("config=%d seed=%d", ci, seed)
			sum := fmt.Sprintf("%x", sha256.Sum256(b))
			got = append(got, label+" "+sum)
			if want[label] != sum {
				t.Errorf("%s (%s %v): digest %s, golden %q", label, cfg.Workload.Name, cfg.Mode, sum, want[label])
			}
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, the matrix has %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("computed digests:\n%s", strings.Join(got, "\n"))
	}
}
