package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
)

// Prometheus text-format exposition (version 0.0.4), hand-written on the
// standard library so the module stays dependency-free. Output is
// deterministic: metrics in declaration order.

type promWriter struct {
	bw  *bufio.Writer
	err error
}

// metric writes one single-sample metric: its HELP and TYPE lines, then
// the sample.
func (p *promWriter) metric(name, typ, help string, v float64) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.bw, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
}

// WriteSweepProm renders a local-sweep snapshot (autorfm-bench -http) in
// Prometheus text format.
func WriteSweepProm(w io.Writer, snap SweepSnapshot) error {
	p := &promWriter{bw: bufio.NewWriter(w)}
	p.metric("autorfm_sweep_jobs_done", "gauge", "Jobs completed so far (including cache hits).", float64(snap.JobsDone))
	p.metric("autorfm_sweep_jobs_total", "gauge", "Jobs in the sweep.", float64(snap.JobsTotal))
	p.metric("autorfm_sweep_cache_hits", "gauge", "Jobs served from the singleflight cache or resume checkpoint.", float64(snap.CacheHits))
	p.metric("autorfm_sweep_failed", "gauge", "Jobs that produced ERR cells.", float64(snap.Failed))
	p.metric("autorfm_sweep_events_total", "counter", "Simulated events across completed jobs.", float64(snap.Events))
	p.metric("autorfm_sweep_events_per_sec", "gauge", "Simulated-event rate over the simulation window (cache hits excluded).", snap.EventsPerSec)
	p.metric("autorfm_sweep_elapsed_ms", "gauge", "Wall time since the sweep started.", float64(snap.ElapsedMS))
	p.metric("autorfm_sweep_eta_ms", "gauge", "Estimated wall time to completion.", float64(snap.ETAMS))
	if p.err != nil {
		return p.err
	}
	return p.bw.Flush()
}

// promContentType is the exposition-format content type scrapers expect.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsHandler serves a Prometheus /metrics endpoint whose body write
// renders (WriteSweepProm over a fresh snapshot).
func MetricsHandler(write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		_ = write(w)
	})
}
