package dist

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
)

// jobState is one job's position in its lifecycle.
type jobState int

const (
	jobPending jobState = iota // queued, waiting for a lease
	jobLeased                  // at least one live lease out
	jobDone                    // result or deterministic error landed
)

// job is one distinct simulation the sweep needs, identified by its
// canonical config key. Experiments may reference the same job from many
// batches (every experiment resubmits its baselines); the coordinator keeps
// exactly one.
type job struct {
	key    string
	cfg    sim.Config
	family string // stall-detector grouping: the config identity minus workload
	order  int    // submission order, for deterministic queue behavior
	state  jobState
	leases int // live leases (>1 while a straggler is being stolen)
	res    sim.Result
	err    error         // deterministic job failure, verbatim from the worker
	done   chan struct{} // closed when state becomes jobDone

	// Observability, populated only when Coordinator.Trace is on.
	attempts  int // lease grants so far (numbers LeaseResponse.Attempt, 1-based)
	spans     []telemetry.Span
	spansLost int // spans dropped past maxJobSpans
}

// maxJobSpans bounds one job's lifecycle trace: a handful of phases per
// attempt plus bounded heartbeat instants fits comfortably; a job requeued
// in a pathological churn loop must not grow without bound.
const maxJobSpans = 256

// maxHeartbeatSpans bounds the per-lease heartbeat instants recorded; the
// renewals past it still renew, they just stop appearing in the trace.
const maxHeartbeatSpans = 16

// lease is one outstanding grant of a job to a worker.
type lease struct {
	id       uint64
	key      string
	worker   string
	expires  time.Time
	granted  time.Time
	attempt  int  // this grant's 1-based attempt number on its job
	beats    int  // heartbeats received (bounds the recorded instants)
	profiled bool // stall profile already requested once
}

// Coordinator owns a sweep's job list and serves the lease protocol. It
// implements exp.Runner, so experiment definitions drive it exactly like a
// local runner.Pool: RunAll submits a batch of configs and blocks until
// workers (or the store) have produced every result.
//
// Set the exported knobs before serving traffic. A Coordinator is safe for
// concurrent use.
type Coordinator struct {
	// LeaseTTL is how long a lease lives without a heartbeat before the
	// job is requeued (default 10s). Heartbeats renew for another TTL.
	LeaseTTL time.Duration
	// RetryWait is the poll interval suggested to idle workers (default 300ms).
	RetryWait time.Duration
	// MaxLeasesPerJob bounds duplicate leases on one straggling job,
	// including the original (default 2: one steal). Stealing only happens
	// when the pending queue is empty, i.e. near sweep end.
	MaxLeasesPerJob int
	// Trace enables span tracing: the coordinator records every job's
	// lifecycle (submit, lease, heartbeat, requeue, steal, upload) and asks
	// workers, via LeaseResponse.Trace, to record and upload their
	// execution phases. Export the merged trace with WriteSpanLog /
	// WriteChromeTrace after Drain. Off by default: recording is bounded
	// per job but not free.
	Trace bool
	// Fleet, when non-nil, aggregates the fleet metrics view — per-worker
	// gauges from heartbeat piggybacks, per-family latency percentiles from
	// completions — and powers the stall detector (a lease running past its
	// family's rolling p99 gets one profile-capture request). Publish
	// serves it as the "autorfm.fleet" expvar; Handler serves it at
	// /metrics either way.
	Fleet *telemetry.Fleet
	// Flights, when non-nil, persists the flight records failed (or
	// stall-profiled) jobs upload; the ERR footnote then carries the
	// record's content address as " [flight <id>]".
	Flights *telemetry.FlightStore

	store *runner.Store

	mu        sync.Mutex
	jobs      map[string]*job
	queue     []string // pending job keys, FIFO
	leases    map[uint64]*lease
	nextLease uint64
	workers   map[string]time.Time // worker name -> last seen
	drained   bool

	// counters, guarded by mu
	storeHits  int
	requeues   int64
	steals     int64
	uploads    int64
	duplicates int64

	now func() time.Time // test hook; time.Now outside tests
}

// NewCoordinator returns a coordinator persisting completed results to
// store (use runner.NewMemStore for a throwaway sweep).
func NewCoordinator(store *runner.Store) *Coordinator {
	return &Coordinator{
		LeaseTTL:        10 * time.Second,
		RetryWait:       300 * time.Millisecond,
		MaxLeasesPerJob: 2,
		store:           store,
		jobs:            make(map[string]*job),
		leases:          make(map[uint64]*lease),
		workers:         make(map[string]time.Time),
		now:             time.Now,
	}
}

// Store returns the coordinator's result store.
func (c *Coordinator) Store() *runner.Store { return c.store }

// RunAll implements exp.Runner: it submits the configs as jobs and blocks
// until every one has a result (from the store, a worker upload, or a
// deterministic worker-reported error), returning them index-aligned like
// runner.Pool.RunAll. Jobs already completed — in the store from an earlier
// sweep or coordinator incarnation, or by a previous batch — cost nothing.
// A fired ctx unblocks immediately with ctx's error for every unfinished
// job; the jobs themselves stay queued for a later resubmission.
func (c *Coordinator) RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error) {
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))

	// Enqueue the whole batch first (in input order, so workers see jobs
	// roughly in paper order), then wait.
	js := make([]*job, len(cfgs))
	c.mu.Lock()
	for i, cfg := range cfgs {
		key := cfg.Key()
		if key == "" {
			errs[i] = errors.New("dist: config is not memoizable (caller-supplied stream/tracker/policy); run it locally")
			continue
		}
		j, ok := c.jobs[key]
		if !ok {
			j = &job{key: key, cfg: cfg, family: familyOf(&cfg), order: len(c.jobs), done: make(chan struct{})}
			if res, hit := c.store.Get(key); hit {
				j.state = jobDone
				j.res = res
				c.storeHits++
				c.spanLocked(j, telemetry.Span{Name: telemetry.SpanStoreHit, StartUS: c.now().UnixMicro()})
				close(j.done)
			} else {
				c.queue = append(c.queue, key)
				c.spanLocked(j, telemetry.Span{Name: telemetry.SpanSubmit, StartUS: c.now().UnixMicro()})
			}
			c.jobs[key] = j
		}
		js[i] = j
	}
	c.mu.Unlock()

	for i, j := range js {
		if j == nil {
			continue // keyless, already failed
		}
		select {
		case <-j.done:
			c.mu.Lock()
			results[i], errs[i] = j.res, j.err
			c.mu.Unlock()
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	return results, errs
}

// Lease grants the calling worker one job, or tells it to wait or exit.
// Expired leases are collected (and their jobs requeued) on every call, so
// the fabric needs no background reaper goroutine.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.workers[worker] = now
	c.Fleet.Seen(worker)
	c.expireLocked(now)

	// Pending work first. Jobs can complete while queued (a stolen
	// duplicate or a leaseless upload landed): skip those.
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		j := c.jobs[key]
		if j.state == jobDone {
			continue
		}
		return c.grantLocked(j, worker, now, false)
	}

	// Queue empty: steal from the straggler whose earliest lease is oldest,
	// unless this worker already holds one of its leases.
	if j := c.stealCandidateLocked(worker); j != nil {
		c.steals++
		return c.grantLocked(j, worker, now, true)
	}

	if c.drained && c.allDoneLocked() {
		// The worker will exit on StatusDone: drop it from the fleet gauge
		// now, so "no leases and no workers" means everyone has been
		// dismissed and the coordinator itself may shut down.
		delete(c.workers, worker)
		return LeaseResponse{Status: StatusDone}
	}
	return LeaseResponse{Status: StatusWait, RetryMS: c.RetryWait.Milliseconds()}
}

// grantLocked issues a lease on j to worker.
func (c *Coordinator) grantLocked(j *job, worker string, now time.Time, stolen bool) LeaseResponse {
	c.nextLease++
	j.attempts++
	l := &lease{
		id: c.nextLease, key: j.key, worker: worker,
		expires: now.Add(c.LeaseTTL), granted: now, attempt: j.attempts,
	}
	c.leases[l.id] = l
	j.state = jobLeased
	j.leases++
	if stolen {
		c.spanLocked(j, telemetry.Span{
			Name: telemetry.SpanSteal, Worker: worker, Attempt: l.attempt,
			LeaseID: l.id, StartUS: now.UnixMicro(),
		})
	}
	return LeaseResponse{
		Status:  StatusJob,
		Key:     j.key,
		Config:  j.cfg,
		LeaseID: l.id,
		TTLMS:   c.LeaseTTL.Milliseconds(),
		Stolen:  stolen,
		Attempt: l.attempt,
		Trace:   c.Trace,
	}
}

// stealCandidateLocked picks the leased, unfinished job with the oldest
// earliest-expiring lease that still has steal headroom and no lease held
// by the requesting worker. Returns nil when there is nothing to steal.
func (c *Coordinator) stealCandidateLocked(worker string) *job {
	oldest := make(map[string]time.Time) // key -> earliest lease expiry
	mine := make(map[string]bool)        // keys this worker already leases
	for _, l := range c.leases {
		if t, ok := oldest[l.key]; !ok || l.expires.Before(t) {
			oldest[l.key] = l.expires
		}
		if l.worker == worker {
			mine[l.key] = true
		}
	}
	var best *job
	var bestT time.Time
	for key, t := range oldest {
		j := c.jobs[key]
		if j.state != jobLeased || j.leases >= c.MaxLeasesPerJob || mine[key] {
			continue
		}
		if best == nil || t.Before(bestT) || (t.Equal(bestT) && j.order < best.order) {
			best, bestT = j, t
		}
	}
	return best
}

// Heartbeat renews a lease. OK=false in the response means the lease is no
// longer live. The optional metrics payload feeds the fleet view, and the
// stall detector may set Profile to ask the worker for one goroutine
// profile when the lease has run past its config family's rolling p99.
func (c *Coordinator) Heartbeat(worker string, leaseID uint64, m *telemetry.WorkerMetrics) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.workers[worker] = now
	c.expireLocked(now)
	l, ok := c.leases[leaseID]
	var age time.Duration
	if ok {
		age = now.Sub(l.granted)
	}
	c.Fleet.Heartbeat(worker, age, m)
	if !ok {
		return HeartbeatResponse{}
	}
	l.expires = now.Add(c.LeaseTTL)
	l.beats++
	j := c.jobs[l.key]
	if l.beats <= maxHeartbeatSpans {
		c.spanLocked(j, telemetry.Span{
			Name: telemetry.SpanHeartbeat, Worker: worker, Attempt: l.attempt,
			LeaseID: l.id, StartUS: now.UnixMicro(),
		})
	}
	resp := HeartbeatResponse{OK: true}
	if j != nil && !l.profiled && c.Fleet.StallCheck(j.family, age) {
		l.profiled = true
		resp.Profile = true
		c.spanLocked(j, telemetry.Span{
			Name: telemetry.SpanStall, Worker: worker, Attempt: l.attempt,
			LeaseID: l.id, StartUS: now.UnixMicro(),
			Detail: fmt.Sprintf("lease age %dms past family %q p99", age.Milliseconds(), j.family),
		})
	}
	return resp
}

// Complete records an uploaded result (or deterministic job error). It is
// deliberately lease-agnostic: uploads with expired, stolen-away, or
// unknown leases — or from before a coordinator restart — are all accepted,
// because a result is validated by its content address, not its lease.
// First result wins; later duplicates are acknowledged and dropped.
//
// The request's optional observability payloads are absorbed here: a
// flight record is persisted to Flights (its ID suffixed to the ERR
// footnote as " [flight <id>]"), worker-side spans are merged into the
// job's lifecycle trace, and the completing lease's end-to-end latency
// feeds the fleet's per-family percentiles.
func (c *Coordinator) Complete(req ResultRequest) (ResultResponse, error) {
	worker, leaseID, key, res, errStr := req.Worker, req.LeaseID, req.Key, req.Result, req.Error
	if key == "" {
		return ResultResponse{}, errors.New("dist: result upload without a key")
	}
	if errStr == "" && res.Config.Key() != key {
		return ResultResponse{}, fmt.Errorf("dist: result content does not match its key %q", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.workers[worker] = now
	c.Fleet.Seen(worker)

	// Persist the flight record (if any) before anything can short-circuit:
	// a duplicate upload's forensics are still forensics.
	flightID := ""
	if req.Flight != nil && c.Flights != nil {
		id, err := c.Flights.Put(req.Flight)
		if err == nil {
			flightID = id
		}
		// A failed persist degrades to a plain footnote; the result itself
		// must never be rejected over its black box.
	}

	var attempt int
	var latency time.Duration
	if l, ok := c.leases[leaseID]; ok && l.key == key {
		attempt = l.attempt
		latency = now.Sub(l.granted)
		c.leaseSpanLocked(l, now, "result")
		c.releaseLocked(l)
	}

	j, ok := c.jobs[key]
	if ok && c.Trace {
		// Merge the worker-recorded execution phases into the lifecycle
		// trace regardless of who wins the result race: the work happened.
		for _, s := range req.Spans {
			s.Key = key
			if s.Worker == "" {
				s.Worker = worker
			}
			c.spanLocked(j, s)
		}
	}
	if ok && j.state == jobDone {
		c.duplicates++
		c.spanLocked(j, telemetry.Span{
			Name: telemetry.SpanDuplicate, Worker: worker, Attempt: attempt,
			LeaseID: leaseID, StartUS: now.UnixMicro(),
		})
		return ResultResponse{Accepted: true, Duplicate: true}, nil
	}

	if !ok {
		// No job of this sweep has the key: a worker from a previous
		// coordinator incarnation finished a job this incarnation has not
		// (re)submitted yet, or the upload is bogus. Acknowledge it but keep
		// it out of the store, so the store only ever holds the jobs this
		// sweep asked for; a real job simply runs again when submitted.
		c.uploads++
		return ResultResponse{Accepted: true}, nil
	}
	// Persist successes before exposing them: a coordinator crash between
	// the two must lose the in-memory job, never the durable record.
	if errStr == "" {
		if _, err := c.store.Put(key, res); err != nil {
			return ResultResponse{}, err
		}
	}
	if errStr != "" {
		if flightID != "" {
			// The footnote carries the black box's address. This is the one
			// place a dist report's failure footnotes diverge byte-wise from
			// a local run's — only for ERR cells, only with Flights on.
			errStr += " [flight " + flightID + "]"
		}
		j.err = errors.New(errStr)
	} else {
		j.res = res
	}
	j.state = jobDone
	c.uploads++
	detail := ""
	if flightID != "" {
		detail = "flight " + flightID
	}
	c.spanLocked(j, telemetry.Span{
		Name: telemetry.SpanUpload, Worker: worker, Attempt: attempt,
		LeaseID: leaseID, StartUS: now.UnixMicro(), Detail: detail,
	})
	if latency > 0 {
		c.Fleet.JobDone(j.family, latency)
	}
	// Retire every other live lease on this job (work-steal losers).
	for id, l := range c.leases {
		if l.key == key {
			c.leaseSpanLocked(l, now, "superseded")
			delete(c.leases, id)
			j.leases--
		}
	}
	close(j.done)
	return ResultResponse{Accepted: true}, nil
}

// releaseLocked retires one lease without touching its job's state.
func (c *Coordinator) releaseLocked(l *lease) {
	if _, ok := c.leases[l.id]; !ok {
		return
	}
	delete(c.leases, l.id)
	if j, ok := c.jobs[l.key]; ok && j.leases > 0 {
		j.leases--
	}
}

// spanLocked appends one lifecycle span to j's bounded trace when tracing
// is on. The span's Key is stamped from the job, so callers only fill the
// event fields.
func (c *Coordinator) spanLocked(j *job, s telemetry.Span) {
	if !c.Trace || j == nil {
		return
	}
	if len(j.spans) >= maxJobSpans {
		j.spansLost++
		return
	}
	s.Key = j.key
	j.spans = append(j.spans, s)
}

// leaseSpanLocked closes a lease's lifetime span: granted at its grant
// time, retired now, with the retirement cause as the detail.
func (c *Coordinator) leaseSpanLocked(l *lease, end time.Time, detail string) {
	c.spanLocked(c.jobs[l.key], telemetry.Span{
		Name: telemetry.SpanLease, Worker: l.worker, Attempt: l.attempt,
		LeaseID: l.id, StartUS: l.granted.UnixMicro(), EndUS: end.UnixMicro(),
		Detail: detail,
	})
}

// familyOf derives a job's config family — its identity minus the
// workload, mirroring exp's job labels — so the fleet's latency
// percentiles pool jobs whose run times are comparable.
func familyOf(cfg *sim.Config) string {
	f := fmt.Sprintf("%v", cfg.Mode)
	if cfg.TH > 0 {
		f += fmt.Sprintf("-%d", cfg.TH)
	}
	if cfg.Mapping != "" {
		f += "/" + cfg.Mapping
	}
	if cfg.Tracker != "" {
		f += "/" + cfg.Tracker
	}
	return f
}

// Spans returns a merged copy of every job's lifecycle spans, sorted by
// start time (empty unless Trace is on).
func (c *Coordinator) Spans() []telemetry.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.Span
	for _, j := range c.jobs {
		out = append(out, j.spans...)
	}
	telemetry.SortSpans(out)
	return out
}

// WriteSpanLog exports the merged lifecycle trace as the autorfm-spans/v1
// JSON-lines log.
func (c *Coordinator) WriteSpanLog(w io.Writer) error {
	return telemetry.WriteSpanLog(w, c.Spans())
}

// WriteChromeTrace exports the merged lifecycle trace as Chrome
// trace-event JSON — one track per worker — loadable in Perfetto or
// chrome://tracing.
func (c *Coordinator) WriteChromeTrace(w io.Writer) error {
	return telemetry.WriteChromeSpans(w, c.Spans())
}

// expireLocked requeues every job whose leases have all expired — the
// crashed-worker path. A job with one live lease left (its thief) stays
// leased.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		c.leaseSpanLocked(l, now, "expired")
		delete(c.leases, id)
		j := c.jobs[l.key]
		if j == nil || j.state != jobLeased {
			continue
		}
		j.leases--
		if j.leases <= 0 {
			j.leases = 0
			j.state = jobPending
			c.queue = append(c.queue, j.key)
			c.requeues++
			c.spanLocked(j, telemetry.Span{
				Name: telemetry.SpanRequeue, Worker: l.worker, Attempt: l.attempt,
				LeaseID: l.id, StartUS: now.UnixMicro(),
				Detail: "lease expired (worker crashed or partitioned)",
			})
		}
	}
}

// Drain marks the sweep over: workers asking for leases are told to exit
// once every job is done.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.drained = true
	c.mu.Unlock()
}

func (c *Coordinator) allDoneLocked() bool {
	for _, j := range c.jobs {
		if j.state != jobDone {
			return false
		}
	}
	return true
}

// Snapshot returns the coordinator's current gauges. Expired leases are
// collected first, so the lease gauge never counts workers that are gone.
func (c *Coordinator) Snapshot() telemetry.CoordSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	return c.snapshotLocked()
}

func (c *Coordinator) snapshotLocked() telemetry.CoordSnapshot {
	live := 0
	horizon := c.now().Add(-3 * c.LeaseTTL)
	for _, seen := range c.workers {
		if seen.After(horizon) {
			live++
		}
	}
	done := 0
	for _, j := range c.jobs {
		if j.state == jobDone {
			done++
		}
	}
	return telemetry.CoordSnapshot{
		Workers:    live,
		Leases:     len(c.leases),
		JobsTotal:  len(c.jobs),
		JobsDone:   done,
		StoreHits:  c.storeHits,
		Requeues:   c.requeues,
		Steals:     c.steals,
		Uploads:    c.uploads,
		Duplicates: c.duplicates,
		Drained:    c.drained,
	}
}

// FleetSnapshot returns the fleet view (empty without a Fleet) carrying
// the coordinator's own requeue and steal counters, collected after
// expired leases like Snapshot's.
func (c *Coordinator) FleetSnapshot() telemetry.FleetSnapshot {
	snap := c.Fleet.Snapshot()
	c.mu.Lock()
	c.expireLocked(c.now())
	snap.Requeues, snap.Steals = c.requeues, c.steals
	c.mu.Unlock()
	return snap
}

// Publish exposes Snapshot and FleetSnapshot as the expvars
// "autorfm.coord" and "autorfm.fleet"; both are read on every request.
func (c *Coordinator) Publish() {
	telemetry.PublishCoord(c.Snapshot)
	telemetry.PublishFleet(c.FleetSnapshot)
}

// Handler returns the coordinator's HTTP API: the lease protocol plus
// /status (a JSON snapshot), /debug/vars (expvar, including the
// "autorfm.coord" and "autorfm.fleet" gauges once Publish has run) and
// /metrics (the fleet view in Prometheus text).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req, func() string { return req.Proto }) {
			return
		}
		writeJSON(w, c.Lease(req.Worker))
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req, func() string { return req.Proto }) {
			return
		}
		writeJSON(w, c.Heartbeat(req.Worker, req.LeaseID, req.Metrics))
	})
	mux.HandleFunc("/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !decode(w, r, &req, func() string { return req.Proto }) {
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// Prometheus text-format fleet gauges; without a Fleet aggregator only
	// the worker count (0), requeues and steals carry values.
	mux.Handle("/metrics", telemetry.MetricsHandler(func(w io.Writer) error {
		return telemetry.WriteFleetProm(w, c.FleetSnapshot())
	}))
	return mux
}

// decode parses a POSTed JSON request and checks its protocol version,
// writing the HTTP error itself when the request is unusable.
func decode(w http.ResponseWriter, r *http.Request, dst interface{}, proto func() string) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(dst); err != nil {
		http.Error(w, fmt.Sprintf("dist: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	if p := proto(); p != ProtocolVersion {
		http.Error(w, fmt.Sprintf("dist: protocol %q, coordinator speaks %q", p, ProtocolVersion), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding errors here mean the client went away; it will retry.
	_ = json.NewEncoder(w).Encode(v)
}
