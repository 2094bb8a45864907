package telemetry

// Live introspection: expvar-published snapshots of a local sweep
// ("autorfm.sweep"), a sweep coordinator ("autorfm.coord") and its worker
// fleet ("autorfm.fleet"). The coordinator serves its two on its own
// /debug/vars; autorfm-bench -http serves the DefaultServeMux, where
// "autorfm.sweep" sits next to net/http/pprof (which the command links,
// not this package), so a multi-minute sweep answers "is it stuck, and
// where is the time going" without interrupting it:
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

// CoordSnapshot is one point-in-time view of a sweep coordinator, as
// rendered under /debug/vars as "autorfm.coord" and by the coordinator's
// /status endpoint: how many workers are alive, how many leases are out,
// and how often the fabric had to requeue or steal work.
type CoordSnapshot struct {
	// Workers is the number of distinct workers seen recently (within a
	// few lease TTLs) — the fabric's live fleet size.
	Workers int `json:"workers"`
	// Leases is the number of currently outstanding job leases.
	Leases int `json:"leases"`
	// JobsTotal and JobsDone count distinct jobs submitted and completed;
	// StoreHits is how many of the done jobs were served from the
	// content-addressed result store without touching a worker.
	JobsTotal int `json:"jobs_total"`
	JobsDone  int `json:"jobs_done"`
	StoreHits int `json:"store_hits"`
	// Requeues counts leases that expired (crashed or partitioned workers)
	// and were put back on the queue.
	Requeues int64 `json:"requeues"`
	// Steals counts duplicate leases issued for straggling jobs near sweep
	// end (first uploaded result wins).
	Steals int64 `json:"steals"`
	// Uploads and Duplicates count accepted result uploads and uploads
	// that lost a first-result-wins race (or arrived after a requeue).
	Uploads    int64 `json:"uploads"`
	Duplicates int64 `json:"duplicates"`
	// Drained reports that the sweep is over: workers asking for jobs are
	// being told to exit.
	Drained bool `json:"drained"`
}

// published maps each expvar name to the function currently behind it.
var published struct {
	sync.Mutex
	fns map[string]func() interface{}
}

// publish exposes f as the expvar name. expvar panics on a duplicate
// name, so the name is registered once per process and re-pointed at the
// most recent f on later calls (tests publish several).
func publish(name string, f func() interface{}) {
	published.Lock()
	defer published.Unlock()
	if published.fns == nil {
		published.fns = map[string]func() interface{}{}
	}
	if _, ok := published.fns[name]; !ok {
		expvar.Publish(name, expvar.Func(func() interface{} {
			published.Lock()
			cur := published.fns[name]
			published.Unlock()
			return cur()
		}))
	}
	published.fns[name] = f
}

// PublishSweep exposes snapshot as the expvar "autorfm.sweep".
func PublishSweep(snapshot func() SweepSnapshot) {
	publish("autorfm.sweep", func() interface{} { return snapshot() })
}

// PublishCoord exposes snapshot as the expvar "autorfm.coord".
func PublishCoord(snapshot func() CoordSnapshot) {
	publish("autorfm.coord", func() interface{} { return snapshot() })
}

// PublishFleet exposes snapshot as the expvar "autorfm.fleet".
func PublishFleet(snapshot func() FleetSnapshot) {
	publish("autorfm.fleet", func() interface{} { return snapshot() })
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
