// Command bench is the repository benchmark. It drives the simulator
// through its public entry points — the experiment registry with a
// runner.Pool, sim.Machine.Run with the sim.Config hooks, and attack.Run —
// on four workloads, and prints the end-to-end metrics or, with -trace 1,
// the per-layer ledger. See README.md for the metrics and how to run it.
//
// Usage:
//
//	bash perfbench/run.sh [-workload all|sweep|steady|short|audit] [-seed N] [-seconds S] [-trace 0|1]
//	bash perfbench/run.sh -compare A.txt B.txt
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any job failed or any correctness check did not hold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// traceDir is where traced runs leave their span and profile files,
// relative to the checkout root.
const traceDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the jobs every pass runs")
	seconds := fs.Int("seconds", -1, "how long to keep starting passes (at least two passes always run); default run_seconds from BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two files of captured runs, A and B, against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRuns(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds < -1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want -seconds >= 0, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *seconds == -1 {
		bf, err := readBenchFile()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		*seconds = bf.RunSeconds
	}
	if *wl == "all" {
		return runAll(names, *seed, *seconds, *trace, stdout, stderr)
	}
	w, ok := workloadByName(*wl)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: all, %s)\n", *wl, strings.Join(names, ", "))
		return 2
	}
	dir := ""
	if *trace == 1 {
		dir = traceDir
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rep := runWorkload(w, fullSize, *seed, time.Duration(*seconds)*time.Second, dir)
	rep.print(stdout, stderr)
	if !rep.res.Correct || rep.res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so heap, GC
// and peak RSS are per workload.
func runAll(names []string, seed uint64, seconds, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run.
type report struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	passes   int
	jobs     int
	info     []string
	exact    [][2]string // name, value: outputs that repeat exactly per seed
	problems []string
	res      result
}

// runWorkload runs one workload: the closed loop of passes for d, or with
// a trace directory the traced ledger.
func runWorkload(w benchWorkload, sz sizes, seed uint64, d time.Duration, dir string) report {
	rep := report{workload: w.name, seed: seed, seconds: d, traced: dir != ""}
	r := w.new(sz)
	var m map[string]float64
	var ps []*passOut
	if rep.traced {
		m, ps = rep.traceRun(r, w.name, seed, d, dir)
	} else {
		ps = loop(r, seed, d)
		m = rep.endToEnd(ps)
		rep.exact = append(rep.exact, [2]string{"sim_digest", passDigest(ps[0].digests)})
	}
	if w.name == "sweep" {
		rep.exact = append(rep.exact, [2]string{"paper_err_pct", strconv.FormatFloat(ps[0].paperErr, 'f', 6, 64)})
	}
	for i, p := range ps {
		rep.res.Attempted += p.attempted
		rep.res.Failed += p.failed
		rep.problems = append(rep.problems, p.problems...)
		rep.jobs += len(p.jobs)
		// Every pass repeats the same jobs on warm state, so it must
		// reproduce the first pass's outputs exactly.
		if i > 0 && passDigest(p.digests) != passDigest(ps[0].digests) {
			rep.res.Failed++
			rep.problems = append(rep.problems, fmt.Sprintf("pass %d outputs differ from pass 0", i))
		}
	}
	rep.passes = len(ps)
	checked := ps[0].check()
	rep.res.Attempted++
	rep.res.Failed += len(checked)
	rep.problems = append(rep.problems, checked...)

	defs := endToEnd
	if rep.traced {
		defs = perLayer
	}
	rep.res.Metrics = map[string]metricValue{}
	for _, def := range defs {
		v := m[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is %v", def.Name, v))
			v = 0
		}
		rep.res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	rep.res.Correct = len(rep.problems) == 0 && rep.res.Failed == 0
	return rep
}

// minPasses is the fewest passes a run makes, so every job has a second
// repetition to take the fastest of even when one pass outlasts the run.
const minPasses = 2

// loop is the closed loop: it starts the next pass of the same jobs when
// the previous one returns, until d has passed and minPasses have run.
func loop(r passer, seed uint64, d time.Duration) []*passOut {
	deadline := time.Now().Add(d)
	var ps []*passOut
	var before, after runtime.MemStats
	for len(ps) < minPasses || time.Now().Before(deadline) {
		runtime.ReadMemStats(&before)
		p := r.pass(seed, nil)
		runtime.ReadMemStats(&after)
		p.mallocs, p.gc = after.Mallocs-before.Mallocs, after.NumGC-before.NumGC
		ps = append(ps, p)
	}
	return ps
}

// best is one job's fastest repetition across a run's passes, each time
// taken separately.
type best struct {
	setup, total, loop, queue time.Duration
}

// fastest returns every job's best repetition, in first-pass order, and
// the wall of a pass made of every part's best repetition. Other tenants
// of the host only ever add time, so the fastest repetition of identical
// work is the most repeatable measure of its cost.
func fastest(ps []*passOut) ([]best, time.Duration) {
	byID := map[string]*best{}
	var order []string
	parts := append([]time.Duration(nil), ps[0].parts...)
	for _, p := range ps {
		if len(p.parts) == len(parts) {
			for i, d := range p.parts {
				parts[i] = min(parts[i], d)
			}
		}
		for _, j := range p.jobs {
			b, ok := byID[j.id]
			if !ok {
				byID[j.id] = &best{setup: j.setup, total: j.total, loop: j.total - j.setup, queue: j.queue}
				order = append(order, j.id)
				continue
			}
			b.setup = min(b.setup, j.setup)
			b.total = min(b.total, j.total)
			b.loop = min(b.loop, j.total-j.setup)
			b.queue = min(b.queue, j.queue)
		}
	}
	bs := make([]best, len(order))
	for i, id := range order {
		bs[i] = *byID[id]
	}
	var wall time.Duration
	for _, d := range parts {
		wall += d
	}
	return bs, wall
}

// endToEnd computes the untraced metrics. Times are scaled to the
// reference host's speed (see calibrate); the raw values go to the info
// lines.
func (rep *report) endToEnd(ps []*passOut) map[string]float64 {
	bs, wall := fastest(ps)
	var setups, totals []float64
	var simulating time.Duration
	for _, b := range bs {
		setups = append(setups, b.setup.Seconds())
		totals = append(totals, float64(b.total)/float64(time.Millisecond))
		simulating += b.loop
	}
	var all []float64
	var mallocs uint64
	var jobs int
	probe := ps[0].probes[0]
	for _, p := range ps {
		for _, j := range p.jobs {
			all = append(all, float64(j.total)/float64(time.Millisecond))
		}
		for _, d := range p.probes {
			probe = min(probe, d)
		}
		mallocs += p.mallocs
		jobs += p.allocJobs
	}
	raw := map[string]float64{
		"wall_s":         wall.Seconds(),
		"setup_s":        median(setups),
		"sim_ops_per_s":  float64(ps[0].ops) / simulating.Seconds(),
		"job_p50_ms":     median(totals),
		"job_tail_ms":    percentile(totals, 900),
		"allocs_per_job": float64(mallocs) / float64(jobs),
	}
	speed := float64(calibRef) / float64(probe)
	m := map[string]float64{}
	rawLine := "unscaled:"
	for _, def := range endToEnd {
		v := raw[def.Name]
		switch def.Unit {
		case "s", "ms":
			m[def.Name] = v * speed
		case "1/s":
			m[def.Name] = v / speed
		default:
			m[def.Name] = v
		}
		rawLine += fmt.Sprintf(" %s=%.6g", def.Name, v)
	}
	line := fmt.Sprintf("all %d job runs: p50 %.3f ms", len(all), median(all))
	if tail, ok := tailPerMille(len(all)); ok {
		line += fmt.Sprintf(", p%s %.3f ms (the highest percentile with at least %d runs beyond it)",
			perMilleString(tail), percentile(all, tail), minBeyond)
	}
	rep.info = append(rep.info,
		fmt.Sprintf("host speed: best calibration %.3f ms against %.3f ms on the reference host; times scaled by %.4f",
			float64(probe)/1e6, float64(calibRef)/1e6, speed),
		rawLine, line+" (unscaled)", fmt.Sprintf("peak RSS %.1f MB", peakRSSMB()))
	return m
}

// traceRun is the traced run: one span pass with every timing wrapper
// installed, then the untraced loop under the CPU profiler. The span
// pass's outputs must match the untraced first pass's exactly.
func (rep *report) traceRun(r passer, name string, seed uint64, d time.Duration, dir string) (map[string]float64, []*passOut) {
	m := map[string]float64{}
	tr := newTracer()
	sp := r.pass(seed, tr)
	rep.res.Attempted += sp.attempted
	rep.res.Failed += sp.failed
	rep.problems = append(rep.problems, sp.problems...)

	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	ps, err := profiled(base+".cpu.pprof", func() []*passOut { return loop(r, seed, d) })
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	if err := tr.write(base+".spans.jsonl", name); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	rep.info = append(rep.info, "spans in "+base+".spans.jsonl, profile in "+base+".cpu.pprof")

	// Transparency guard: the wrappers must not change a single output.
	rep.res.Attempted++
	if passDigest(sp.digests) != passDigest(ps[0].digests) {
		rep.res.Failed++
		rep.problems = append(rep.problems, "traced and untraced outputs differ")
	}
	rep.exact = append(rep.exact, [2]string{"sim_digest", passDigest(sp.digests)})

	if err == nil {
		shares, step, prewarm, perr := profileShares(base + ".cpu.pprof")
		if perr != nil {
			rep.problems = append(rep.problems, perr.Error())
		}
		for l, v := range shares {
			m["cpu_share."+l] = v
		}
		m["event.step_incl_share"] = step
		m["sim.prewarm_incl_share"] = prewarm
		rep.info = append(rep.info, fmt.Sprintf("named layers cover %.1f%% of CPU samples", 100-shares["other"]))
	}
	for _, def := range perLayer {
		if def.exact {
			m[def.Name] = sp.exact[def.Name]
		}
	}
	m["memctrl.avg_read_latency_ns"] = sp.avgReadLatency()
	act, sel, ref, vict, next := tr.totals()
	for _, b := range []struct {
		name string
		b    boundary
	}{{"tracker.act", act}, {"tracker.select", sel}, {"tracker.ref", ref},
		{"mitigation.victims", vict}, {"workload.next", next}} {
		m[b.name+"_calls"], m[b.name+"_ns"] = float64(b.b.Calls), float64(b.b.NS)
	}

	// Host times come from the untraced loop, which the wrappers do not slow.
	bs, wall := fastest(ps)
	var setups, loops []float64
	var loopNS, queue time.Duration
	for _, b := range bs {
		setups = append(setups, float64(b.setup)/float64(time.Millisecond))
		loops = append(loops, float64(b.loop)/float64(time.Millisecond))
		loopNS += b.loop
		queue += b.queue
	}
	m["sim.job_setup_ms"] = median(setups)
	m["sim.job_loop_ms"] = median(loops)
	if events := ps[0].exact["event.events"]; events > 0 {
		m["event.host_ns_per_event"] = float64(loopNS) / events
	}
	if len(bs) > 0 {
		m["runner.queue_ms"] = float64(queue) / float64(len(bs)) / float64(time.Millisecond)
	}
	var gc uint32
	for _, p := range ps {
		gc += p.gc
	}
	m["gc_cycles"] = float64(gc) / float64(len(ps))
	var spanWall time.Duration
	for _, d := range sp.parts {
		spanWall += d
	}
	m["trace_overhead_pct"] = (spanWall.Seconds()/wall.Seconds() - 1) * 100
	return m, ps
}

// profiled runs f under the CPU profiler, writing the profile to path.
func profiled(path string, f func() []*passOut) ([]*passOut, error) {
	out, err := os.Create(path)
	if err != nil {
		return f(), err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return f(), err
	}
	ps := f()
	pprof.StopCPUProfile()
	return ps, out.Close()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func perMilleString(p int) string {
	return strconv.FormatFloat(float64(p)/10, 'f', -1, 64)
}

// print writes the run's human-readable lines and, last, its JSON result.
// Problems go to stderr.
func (rep *report) print(stdout, stderr io.Writer) {
	fmt.Fprintf(stdout, "bench workload=%s seed=%d seconds=%d trace=%d passes=%d jobs=%d\n",
		rep.workload, rep.seed, int(rep.seconds/time.Second), btoi(rep.traced), rep.passes, rep.jobs)
	defs := endToEnd
	if rep.traced {
		defs = perLayer
	}
	for _, def := range defs {
		fmt.Fprintf(stdout, "metric %-30s %16.6g %s\n", def.Name, rep.res.Metrics[def.Name].Value, def.Unit)
	}
	for _, line := range rep.info {
		fmt.Fprintln(stdout, "info", line)
	}
	for _, kv := range rep.exact {
		fmt.Fprintln(stdout, "exact", kv[0], kv[1])
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stderr, "problem:", p)
	}
	raw, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return
	}
	fmt.Fprintln(stdout, string(raw))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
