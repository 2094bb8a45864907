package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units and directions (pinned by TestMetricTableMatchesBenchmarkJSON);
// exact marks a count that repeats bit for bit for a given seed, which
// -compare checks for equality instead of against a bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	exact  bool
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "job_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_job", Unit: "count", Better: "lower"},
}

// shareLayers are the packages whose share of CPU samples a traced run
// reports, as cpu_share.<layer>. bench is the benchmark's own code (its
// hooks, digests and checks); go_runtime is the Go runtime and its
// internal packages; other is everything else (the rest of the standard
// library and the small helper packages).
var shareLayers = []string{
	"event", "cache", "memctrl", "dram", "tracker", "mitigation", "cpu",
	"workload", "rng", "mapping", "sim", "attack", "runner", "exp",
	"analytic", "bench", "go_runtime", "other",
}

// perLayer are the metrics a traced run reports on every workload. A layer
// a workload does not run reports 0.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, l := range shareLayers {
		ms = append(ms, metricDef{Name: "cpu_share." + l, Unit: "%", Better: "lower"})
	}
	count := func(name, better string) metricDef {
		return metricDef{Name: name, Unit: "count", Better: better, exact: true}
	}
	return append(ms,
		metricDef{Name: "event.step_incl_share", Unit: "%", Better: "lower"},
		count("event.events", "lower"),
		metricDef{Name: "event.host_ns_per_event", Unit: "ns", Better: "lower"},
		count("cache.hits", "higher"),
		count("cache.misses", "lower"),
		count("cache.merged", "higher"),
		count("cache.prefetches", "lower"),
		count("cache.writebacks", "lower"),
		metricDef{Name: "sim.prewarm_incl_share", Unit: "%", Better: "lower"},
		metricDef{Name: "sim.job_setup_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "sim.job_loop_ms", Unit: "ms", Better: "lower"},
		count("memctrl.reads", "lower"),
		count("memctrl.writes", "lower"),
		count("memctrl.acts", "lower"),
		count("memctrl.row_hits", "higher"),
		count("memctrl.alerts", "lower"),
		count("memctrl.rfms", "lower"),
		count("memctrl.refs", "lower"),
		count("memctrl.prac_backoffs", "lower"),
		metricDef{Name: "memctrl.avg_read_latency_ns", Unit: "ns", Better: "lower", exact: true},
		count("dram.mitigations", "lower"),
		count("dram.transitive_mits", "lower"),
		count("dram.victim_refreshes", "lower"),
		count("dram.abo_alerts", "lower"),
		count("tracker.act_calls", "lower"),
		count("tracker.select_calls", "lower"),
		count("tracker.ref_calls", "lower"),
		metricDef{Name: "tracker.act_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "tracker.select_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "tracker.ref_ns", Unit: "ns", Better: "lower"},
		count("mitigation.victims_calls", "lower"),
		metricDef{Name: "mitigation.victims_ns", Unit: "ns", Better: "lower"},
		count("workload.next_calls", "lower"),
		metricDef{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
		count("attack.acts", "higher"),
		count("attack.alerts", "lower"),
		count("attack.mitigations", "lower"),
		count("attack.refreshes", "lower"),
		count("attack.failures", "lower"),
		count("attack.max_damage", "lower"),
		count("runner.sim_jobs", "lower"),
		count("runner.cache_hits", "higher"),
		metricDef{Name: "runner.queue_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	)
}()

// benchFile is the part of BENCHMARK.json the benchmark reads back.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readBenchFile loads BENCHMARK.json from the checkout root, which is the
// working directory or, when run from the benchmark's own directory, its
// parent.
func readBenchFile() (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		raw, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// exactMetric reports whether the named per-layer metric is an exact count.
func exactMetric(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return m.exact
		}
	}
	return false
}
