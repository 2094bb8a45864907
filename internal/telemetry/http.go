package telemetry

// Live introspection: the expvar-published snapshot of a local sweep
// ("autorfm.sweep"). autorfm-bench -http serves the DefaultServeMux, where
// it sits next to net/http/pprof (which the command links, not this
// package), so a multi-minute sweep answers "is it stuck, and where is the
// time going" without interrupting it:
//
//	curl localhost:6060/debug/vars        # {"autorfm.sweep": {...}, ...}
//	go tool pprof localhost:6060/debug/pprof/profile
//	curl localhost:6060/debug/pprof/goroutine?debug=1

import (
	"expvar"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// SweepSnapshot is one point-in-time view of a running sweep, as rendered
// under /debug/vars.
type SweepSnapshot struct {
	JobsDone  int   `json:"jobs_done"`
	JobsTotal int   `json:"jobs_total"`
	CacheHits int   `json:"cache_hits"`
	Failed    int   `json:"failed"`
	Events    int64 `json:"events"`
	// EventsPerSec is events over the simulation window (SimElapsedMS),
	// not pool lifetime: a resumed sweep's cache/store-hit preload
	// answers jobs without simulating, and counting that wall time (or
	// pretending the preloaded events were just computed) skews the rate.
	EventsPerSec float64 `json:"events_per_sec"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	// SimElapsedMS is the time since the first actual simulation started
	// (0 until one does); see runner.Progress.SimElapsed.
	SimElapsedMS int64 `json:"sim_elapsed_ms"`
	ETAMS        int64 `json:"eta_ms"`
}

// SweepStatus holds the latest SweepSnapshot; the runner's OnProgress
// callback updates it, the expvar and /metrics handlers read it. Safe for
// concurrent use.
type SweepStatus struct {
	cur atomic.Pointer[SweepSnapshot]
}

// NewSweepStatus returns a status holding an empty snapshot.
func NewSweepStatus() *SweepStatus {
	s := &SweepStatus{}
	s.cur.Store(&SweepSnapshot{})
	return s
}

// Update publishes a new snapshot, computing the derived rate from events
// and the simulation window (simElapsed — see runner.Progress.SimElapsed;
// zero while the sweep is still draining a cache/store-hit preload, which
// must not count toward throughput).
func (s *SweepStatus) Update(done, total, cacheHits, failed int, events int64, elapsed, simElapsed, eta time.Duration) {
	snap := &SweepSnapshot{
		JobsDone:     done,
		JobsTotal:    total,
		CacheHits:    cacheHits,
		Failed:       failed,
		Events:       events,
		ElapsedMS:    elapsed.Milliseconds(),
		SimElapsedMS: simElapsed.Milliseconds(),
		ETAMS:        eta.Milliseconds(),
	}
	if sec := simElapsed.Seconds(); sec > 0 {
		snap.EventsPerSec = float64(events) / sec
	}
	s.cur.Store(snap)
}

// Snapshot returns the latest snapshot (never nil).
func (s *SweepStatus) Snapshot() SweepSnapshot { return *s.cur.Load() }

// sweepVar is the function behind the expvar "autorfm.sweep". expvar
// panics on a duplicate name, so the name is registered once per process
// and re-pointed at the most recent snapshot function on later calls
// (tests publish several).
var sweepVar struct {
	once sync.Once
	fn   atomic.Pointer[func() SweepSnapshot]
}

// PublishSweep exposes snapshot as the expvar "autorfm.sweep".
func PublishSweep(snapshot func() SweepSnapshot) {
	sweepVar.fn.Store(&snapshot)
	sweepVar.once.Do(func() {
		expvar.Publish("autorfm.sweep", expvar.Func(func() interface{} {
			return (*sweepVar.fn.Load())()
		}))
	})
}

// ServeIntrospection binds addr (e.g. ":6060" or "localhost:0") and serves
// the DefaultServeMux — /debug/vars from expvar, plus whatever else the
// program registered there (autorfm-bench adds /metrics and, by importing
// net/http/pprof, /debug/pprof/*) — on a background goroutine. It returns the bound address
// (useful with port 0) or an error if the listen fails. The listener lives
// for the remainder of the process, matching the lifetime of a sweep.
func ServeIntrospection(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		// Serve only returns on listener failure; the process is exiting then
		// anyway, and introspection must never take the sweep down with it.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}
