package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4), hand-written on the
// standard library so the fabric stays dependency-free. Output is
// deterministic: metrics in declaration order, label values sorted by the
// snapshot builders.

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

type promWriter struct {
	bw  *bufio.Writer
	err error
}

func (p *promWriter) head(name, typ, help string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, p.err = fmt.Fprintf(p.bw, "%s%s %g\n", name, labels, v)
}

// WriteFleetProm renders a fleet snapshot in Prometheus text format — the
// body of the coordinator's /metrics endpoint.
func WriteFleetProm(w io.Writer, snap FleetSnapshot) error {
	p := &promWriter{bw: bufio.NewWriter(w)}

	p.head("autorfm_fleet_workers", "gauge", "Number of workers the coordinator has seen.")
	p.sample("autorfm_fleet_workers", "", float64(len(snap.Workers)))
	p.head("autorfm_fleet_requeues_total", "counter", "Leases expired and requeued (crashed or partitioned workers).")
	p.sample("autorfm_fleet_requeues_total", "", float64(snap.Requeues))
	p.head("autorfm_fleet_steals_total", "counter", "Duplicate leases issued for straggling jobs.")
	p.sample("autorfm_fleet_steals_total", "", float64(snap.Steals))

	p.head("autorfm_worker_last_seen_ms", "gauge", "Milliseconds since the worker's last heartbeat.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_last_seen_ms", workerLabel(w.Worker), float64(w.LastSeenMS))
	}
	p.head("autorfm_worker_heartbeat_jitter_ms", "gauge", "Smoothed deviation between successive heartbeat gaps.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_heartbeat_jitter_ms", workerLabel(w.Worker), w.HeartbeatJitterMS)
	}
	p.head("autorfm_worker_lease_age_ms", "gauge", "Age of the worker's oldest live lease (0 when idle).")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_lease_age_ms", workerLabel(w.Worker), float64(w.LeaseAgeMS))
	}
	p.head("autorfm_worker_events_per_sec", "gauge", "Smoothed simulated-event rate from heartbeat deltas.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_events_per_sec", workerLabel(w.Worker), w.EventsPerSec)
	}
	p.head("autorfm_worker_events_total", "counter", "Cumulative simulated events on the worker.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_events_total", workerLabel(w.Worker), float64(w.Events))
	}
	p.head("autorfm_worker_jobs_done_total", "counter", "Cumulative jobs completed by the worker.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_jobs_done_total", workerLabel(w.Worker), float64(w.JobsDone))
	}
	p.head("autorfm_worker_goroutines", "gauge", "Goroutines on the worker at its last heartbeat.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_goroutines", workerLabel(w.Worker), float64(w.Goroutines))
	}
	p.head("autorfm_worker_heap_bytes", "gauge", "Heap bytes in use on the worker at its last heartbeat.")
	for _, w := range snap.Workers {
		p.sample("autorfm_worker_heap_bytes", workerLabel(w.Worker), float64(w.HeapBytes))
	}

	p.head("autorfm_family_jobs_total", "counter", "Jobs completed per config family.")
	for _, f := range snap.Families {
		p.sample("autorfm_family_jobs_total", familyLabel(f.Family), float64(f.Jobs))
	}
	p.head("autorfm_family_latency_ms", "gauge", "Rolling job latency quantiles per config family.")
	for _, f := range snap.Families {
		p.sample("autorfm_family_latency_ms", familyLabel(f.Family)+`,quantile="0.5"`, float64(f.P50MS))
		p.sample("autorfm_family_latency_ms", familyLabel(f.Family)+`,quantile="0.99"`, float64(f.P99MS))
	}
	p.head("autorfm_family_stalls_total", "counter", "Jobs flagged past the family's rolling p99.")
	for _, f := range snap.Families {
		p.sample("autorfm_family_stalls_total", familyLabel(f.Family), float64(f.Stalls))
	}

	if p.err != nil {
		return p.err
	}
	return p.bw.Flush()
}

func workerLabel(name string) string { return `worker="` + promEscape(name) + `"` }
func familyLabel(name string) string { return `family="` + promEscape(name) + `"` }

// WriteSweepProm renders a local-sweep snapshot (autorfm-bench -http) in
// Prometheus text format.
func WriteSweepProm(w io.Writer, snap SweepSnapshot) error {
	p := &promWriter{bw: bufio.NewWriter(w)}
	p.head("autorfm_sweep_jobs_done", "gauge", "Jobs completed so far (including cache hits).")
	p.sample("autorfm_sweep_jobs_done", "", float64(snap.JobsDone))
	p.head("autorfm_sweep_jobs_total", "gauge", "Jobs in the sweep.")
	p.sample("autorfm_sweep_jobs_total", "", float64(snap.JobsTotal))
	p.head("autorfm_sweep_cache_hits", "gauge", "Jobs served from the singleflight cache or resume checkpoint.")
	p.sample("autorfm_sweep_cache_hits", "", float64(snap.CacheHits))
	p.head("autorfm_sweep_failed", "gauge", "Jobs that produced ERR cells.")
	p.sample("autorfm_sweep_failed", "", float64(snap.Failed))
	p.head("autorfm_sweep_events_total", "counter", "Simulated events across completed jobs.")
	p.sample("autorfm_sweep_events_total", "", float64(snap.Events))
	p.head("autorfm_sweep_events_per_sec", "gauge", "Simulated-event rate over the simulation window (cache hits excluded).")
	p.sample("autorfm_sweep_events_per_sec", "", snap.EventsPerSec)
	p.head("autorfm_sweep_elapsed_ms", "gauge", "Wall time since the sweep started.")
	p.sample("autorfm_sweep_elapsed_ms", "", float64(snap.ElapsedMS))
	p.head("autorfm_sweep_eta_ms", "gauge", "Estimated wall time to completion.")
	p.sample("autorfm_sweep_eta_ms", "", float64(snap.ETAMS))
	if p.err != nil {
		return p.err
	}
	return p.bw.Flush()
}

// promContentType is the exposition-format content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves a Prometheus /metrics endpoint whose body write
// renders (WriteSweepProm or WriteFleetProm over a fresh snapshot).
func MetricsHandler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		_ = write(w)
	})
}
