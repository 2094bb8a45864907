package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autorfm/internal/exp"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/sim"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

// toy runs every workload in a few seconds: two jobs per pass, 2k
// instructions per core, 10k attacker ACTs, and a one-workload sweep.
func toy() sizes {
	sc := exp.Quick()
	sc.Instructions = 2_000
	sc.AttackActs = 10_000
	sc.Workloads = []string{"lbm"}
	return sizes{steadyInstr: 2_000, shortInstr: 2_000, auditActs: 10_000, sweep: sc, passJobs: 2}
}

// TestSmoke runs every workload untraced and traced at toy size and checks
// that each run is correct and prints every metric BENCHMARK.json names,
// with the JSON result last.
func TestSmoke(t *testing.T) {
	bf, err := readBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := fmt.Sprintf("%s/trace=%d", w.name, btoi(traced))
			dir := ""
			want := make([]string, 0, len(bf.PerLayer))
			if traced {
				dir = t.TempDir()
				for _, m := range bf.PerLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range bf.EndToEnd {
					want = append(want, m.Name)
				}
			}
			rep := runWorkload(w, toy(), 1, 0, dir)
			var out, errOut bytes.Buffer
			rep.print(&out, &errOut)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", name, res.Correct, res.Failed, res.Attempted, errOut.String())
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s: metric %s not emitted", name, m)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
			}
		}
	}
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if bf.RunSeconds < 1 {
		t.Errorf("run_seconds %d, want at least 1", bf.RunSeconds)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's table:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, stripExact(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads in BENCHMARK.json %v, program runs %v", names, ours)
	}
}

func stripExact(ms []metricDef) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	return out
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	// runFile writes five untraced steady runs whose metrics are base
	// scaled by f, with the given digest.
	runFile := func(name string, f float64, dig string) string {
		var b strings.Builder
		for seed := 1; seed <= 5; seed++ {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
			for i, m := range endToEnd {
				v := float64(100+i) * (1 + 0.001*float64(seed))
				if m.Name == "wall_s" {
					v *= f
				}
				res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "bench workload=steady seed=%d seconds=10 trace=0\nexact sim_digest %s%d\n%s\n", seed, dig, seed, raw)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := runFile("a", 1, "d")
	for _, c := range []struct {
		name string
		b    string
		want int
	}{
		{"same", runFile("same", 1, "d"), 0},
		{"slower", runFile("slower", 1.5, "d"), 1},
		{"digest", runFile("digest", 1, "x"), 1},
	} {
		var out bytes.Buffer
		if got := compareRuns([]string{a, c.b}, &out, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"autorfm/internal/event.(*Queue).Step":                     "event",
		"autorfm/internal/cache.(*table[go.shape.uint64]).find":    "cache",
		"autorfm/internal/sim.(*laneEngine).start.func1":           "sim",
		"autorfm/internal/clk.Tick.Nanoseconds":                    "other",
		"runtime.mallocgc":                                         "go_runtime",
		"internal/runtime/maps.(*Map).getWithKey":                  "go_runtime",
		"sync.(*Mutex).Lock":                                       "go_runtime",
		"math.log":                                                 "other",
		"main.(*simRun).pass":                                      "bench",
		"autorfm/internal/dram.(*Ledger).RecordAct":                "dram",
		"autorfm/internal/workload.(*Generator).Next":              "workload",
		"autorfm/internal/runner.(*Pool).simulate.func3":           "runner",
		"autorfm/internal/tracker.(*Misra[go.shape.int32]).Update": "tracker",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWrappersForward checks the timing wrappers change nothing the device
// can see: REF reaches REF-aware trackers, AppendVictims draws the same
// victims as the unwrapped policy, and recursive configs keep their tracker.
func TestWrappersForward(t *testing.T) {
	js := &jobSpans{}
	build, err := tracker.FromSpec("twice")
	if err != nil {
		t.Fatal(err)
	}
	twice, err := build(tracker.Env{TH: 4, R: rng.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &timedTracker{inner: twice, js: js}
	wrapped.OnActivation(7)
	wrapped.OnREF()
	if js.act.Calls != 1 || js.ref.Calls != 1 {
		t.Errorf("calls act=%d ref=%d, want 1 and 1", js.act.Calls, js.ref.Calls)
	}

	plain := mitigation.NewFractal(rng.New(9))
	timed := &timedPolicy{inner: mitigation.NewFractal(rng.New(9)), js: js}
	for i := 0; i < 100; i++ {
		sel := tracker.Selection{Row: uint32(1000 + i), Level: 1, OK: true}
		want := plain.Victims(sel, 1<<17)
		got := timed.AppendVictims(nil, sel, 1<<17)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("selection %d: wrapped victims %v, plain %v", i, got, want)
		}
	}

	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Workload: p, Policy: "recursive"}
	if err := js.install(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.NewTracker != nil || cfg.NewPolicy == nil {
		t.Errorf("recursive config: tracker wrapped=%v, policy wrapped=%v; want false, true", cfg.NewTracker != nil, cfg.NewPolicy != nil)
	}
}
