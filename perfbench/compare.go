package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// runRecord is one run parsed back from captured benchmark output.
type runRecord struct {
	workload string
	seed     string
	traced   bool
	exact    map[string]string
	res      result
}

// readRuns parses a file of captured runs: any concatenation of benchmark
// output, such as the stdout of several runs appended to one file.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var cur *runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "bench "):
			cur = &runRecord{exact: map[string]string{}}
			for _, kv := range strings.Fields(line)[1:] {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					cur.workload = v
				case "seed":
					cur.seed = v
				case "trace":
					cur.traced = v == "1"
				}
			}
		case cur == nil:
		case strings.HasPrefix(line, "exact "):
			if f := strings.Fields(line); len(f) == 3 {
				cur.exact[f[1]] = f[2]
			}
		case strings.HasPrefix(line, "{"):
			if err := json.Unmarshal([]byte(line), &cur.res); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// compareRuns applies BENCHMARK.json's bounds to two sets of runs: set B's
// median of every end-to-end metric may be worse than set A's by at most
// the metric's bound, each set's quartile spread should stay within it,
// every run must be correct, and every exact output must be identical
// across all runs of one workload and seed.
func compareRuns(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two files of captured runs: A B")
		return 2
	}
	bf, err := readBenchFile()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var sets [2][]runRecord
	for i, path := range args {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	bad := 0
	fail := func(format string, a ...interface{}) {
		bad++
		fmt.Fprintf(stdout, "FAIL "+format+"\n", a...)
	}
	for i, set := range sets {
		for _, r := range set {
			if !r.res.Correct || r.res.Failed > 0 {
				fail("%s: run of %s seed %s is not correct (%d of %d failed)", args[i], r.workload, r.seed, r.res.Failed, r.res.Attempted)
			}
		}
	}

	fmt.Fprintf(stdout, "%-8s %-16s %14s %14s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for _, w := range bf.Workloads {
		var a, b []runRecord
		for _, r := range sets[0] {
			if r.workload == w.Name && !r.traced {
				a = append(a, r)
			}
		}
		for _, r := range sets[1] {
			if r.workload == w.Name && !r.traced {
				b = append(b, r)
			}
		}
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if len(a) == 0 || len(b) == 0 {
			fail("%s: untraced runs in only one set (%d vs %d)", w.Name, len(a), len(b))
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) != len(a) || len(vb) != len(b) {
				fail("%s: %s missing from some runs", w.Name, m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			fmt.Fprintf(stdout, "%-8s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %6.1f%%\n",
				w.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound)
			if worse > m.Bound {
				fail("%s: %s median worse by %.2f%%, bound %.1f%%", w.Name, m.Name, 100*worse, 100*m.Bound)
			}
			if sa > m.Bound || sb > m.Bound {
				fail("%s: %s quartile spread above its bound %.1f%%", w.Name, m.Name, 100*m.Bound)
			}
		}
	}
	bad += compareExact(sets, stdout)
	if bad > 0 {
		fmt.Fprintf(stdout, "%d check(s) failed\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "ok: set B is within every bound of set A and every exact output matches")
	return 0
}

// compareExact checks that every exact output — sim_digest, paper_err_pct
// and the exact per-layer counts — is identical across all runs of one
// workload and seed, in either set.
func compareExact(sets [2][]runRecord, stdout io.Writer) int {
	seen := map[string]string{} // workload/seed/name → value
	bad := 0
	note := func(k, v string) {
		if old, ok := seen[k]; !ok {
			seen[k] = v
		} else if old != v {
			bad++
			fmt.Fprintf(stdout, "FAIL exact %s differs: %s vs %s\n", k, old, v)
		}
	}
	for _, set := range sets {
		for _, r := range set {
			id := r.workload + "/seed" + r.seed + "/"
			for name, v := range r.exact {
				note(id+name, v)
			}
			if !r.traced {
				continue
			}
			for name, mv := range r.res.Metrics {
				if exactMetric(name) {
					note(id+name, fmt.Sprint(mv.Value))
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%d exact outputs compared across runs\n", len(seen))
	return bad
}

func values(runs []runRecord, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.res.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}
