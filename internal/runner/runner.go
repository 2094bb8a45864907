package runner

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"autorfm/internal/sim"
)

// PanicError is a recovered per-job panic, converted to an error so one
// crashing simulation cannot tear down a whole sweep.
type PanicError struct {
	Key   string      // sim.Config.Key() of the failed job ("" if uncacheable)
	Value interface{} // the value the job panicked with
	Stack []byte      // goroutine stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("job panicked: %v", e.Value)
}

// TimeoutError reports a job cut short by the pool's per-job wall-clock
// limit (Pool.JobTimeout), as opposed to a caller-cancelled context or a
// panic. It unwraps to context.DeadlineExceeded so errors.Is-based callers
// keep working, while renderers (internal/exp footnotes) can say "timeout
// after Xs" instead of the generic cause. Like any deterministic job
// property it is memoized; raising the timeout requires a fresh pool.
type TimeoutError struct {
	Key   string        // sim.Config.Key() of the expired job ("" if uncacheable)
	Limit time.Duration // the JobTimeout that expired
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("timeout after %v", e.Limit)
}

// Unwrap lets errors.Is(err, context.DeadlineExceeded) see through the type.
func (e *TimeoutError) Unwrap() error { return context.DeadlineExceeded }

// FirstError returns the first non-nil error in input order, or nil. It is
// the standard reduction over RunAll's per-job error slice for callers that
// only need fail-fast semantics.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Progress is a snapshot of a pool's job accounting, delivered to the
// OnProgress callback after every job completes.
type Progress struct {
	// Done and Total count jobs completed and submitted so far. Cache
	// hits count as completed jobs (they were asked for and answered).
	Done, Total int
	// CacheHits is how many of the Done jobs were served from the cache
	// or coalesced onto an in-flight simulation.
	CacheHits int
	// Failed is how many of the Done jobs returned an error (including
	// recovered panics, timeouts and cancellations).
	Failed int
	// Events is the total number of discrete events dispatched by the jobs
	// actually simulated so far (cache hits re-deliver a result without
	// re-dispatching its events).
	Events int64
	// Elapsed is the time since the pool ran its first job.
	Elapsed time.Duration
	// SimElapsed is the time since the pool started its first actual
	// simulation — the window throughput rates belong to. It lags Elapsed
	// when a sweep opens with a run of cache or store hits (a resumed
	// sweep answers its prefix in microseconds), and stays zero
	// until something simulates, so rates computed over it are not skewed
	// optimistic by the hits.
	SimElapsed time.Duration
	// ETA estimates the remaining time from the mean cost of the jobs
	// actually simulated so far; zero when nothing is pending or no job
	// has been simulated yet (cache hits carry no timing signal).
	ETA time.Duration
}

// Phase names reported to Pool.OnJobPhase.
const (
	// PhaseQueue is the wait for a worker slot.
	PhaseQueue = "queue"
	// PhaseRun is the machine execution of the job.
	PhaseRun = "run"
)

// Pool runs simulation jobs on a fixed number of workers with a shared
// result cache. The zero value is not usable; use New. A Pool is safe for
// concurrent use by multiple goroutines.
type Pool struct {
	// OnProgress, when non-nil, is called after every completed job with
	// a Progress snapshot. Set it before submitting jobs; it may be
	// called from multiple goroutines, but never concurrently.
	OnProgress func(Progress)

	// JobTimeout, when > 0, bounds each job's wall-clock time: a job
	// exceeding it fails with context.DeadlineExceeded while the rest of
	// the sweep proceeds. Unlike caller cancellation, a timeout is a
	// deterministic property of the job and is memoized like any error.
	// Set it before submitting jobs.
	JobTimeout time.Duration

	// Instrument, when non-nil, is called for every job the pool actually
	// simulates — after cache lookup, on the worker goroutine, with the
	// job's private config copy — so the caller can attach per-run telemetry
	// (sim.Config.Telemetry) without touching cached jobs: cache hits
	// re-deliver results without re-emitting telemetry. Because telemetry
	// is excluded from the cache key, the mutation must not change the
	// simulation outcome. Set it before submitting jobs; it may be called
	// concurrently from multiple workers.
	Instrument func(cfg *sim.Config, key string)

	// OnJobPhase, when non-nil, is called on the worker goroutine for
	// every job the pool actually simulates, once per execution phase
	// (PhaseQueue: the wait for a worker slot; PhaseRun: the machine run)
	// with the phase's wall-clock bounds — the hook perfbench's sweep
	// workload uses to split each job's wall time into queueing and
	// running. Cache hits report no phases. Like Instrument it must not
	// change the simulation outcome. Set it before submitting jobs; calls
	// may be concurrent.
	OnJobPhase func(key, phase string, start, end time.Time)

	// Store, when non-nil, is the pool's durable memo: a job whose key it
	// holds is served from it as a cache hit, and every newly simulated
	// result is Put into it before Run returns. Failed jobs are not stored
	// (errors are cheap to reproduce and must re-run on resume). Writes are
	// best-effort: a failing store degrades persistence, never the sweep —
	// the first failure warns on stderr, every failure increments
	// StoreFailures and the process-wide expvar
	// "autorfm.checkpoint_write_failures". Set it before submitting jobs.
	Store *Store

	sem chan struct{} // bounds concurrent simulations

	mu    sync.Mutex // guards cache
	cache map[string]*entry

	// now overrides time.Now in the pool's clock for tests.
	now func() time.Time

	// machines is a free list of warm sim.Machine allocations, one checked
	// out per in-flight simulation (so it never exceeds the worker count):
	// each run reuses the previous run's event queue, LLC arrays, device
	// state, and pre-warm scratch via sim's Reset paths instead of
	// reconstructing them. Reuse is invisible in results — a Machine run is
	// byte-identical to a fresh run, and a Machine that hosted a panicking
	// or cancelled job rebuilds itself on its next use.
	mmu      sync.Mutex
	machines []*sim.Machine

	sfails atomic.Uint64 // store writes that returned an error
	swarn  sync.Once     // first failure warns on stderr; the rest only count

	pmu        sync.Mutex // guards progress counters and OnProgress calls
	done       int
	submitted  int
	hits       int
	failed     int
	events     int64
	started    time.Time
	simStarted time.Time // when the first actual simulation began
}

// entry is one memoized (possibly in-flight) simulation.
type entry struct {
	ready chan struct{} // closed when res/err are valid
	res   sim.Result
	err   error
}

// New returns a pool running at most workers simulations concurrently;
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*entry),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// CacheStats returns how many completed jobs were served from the cache
// (or coalesced onto an in-flight duplicate) versus actually simulated.
func (p *Pool) CacheStats() (hits, misses int) {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.hits, p.done - p.hits
}

// SimulatedEvents returns the total number of discrete events dispatched by
// jobs this pool actually simulated (cache hits re-deliver a result without
// re-dispatching its events). Together with wall-clock time it yields an
// events/sec figure, as perfbench's sim_ops_per_s does on its sweep.
func (p *Pool) SimulatedEvents() int64 {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.events
}

// Run executes one job, consulting the store (if any) and the cache first.
// Concurrent callers are bounded by the pool's worker count. A panicking
// job returns a *PanicError; a job cut short by ctx returns ctx's error
// and is not memoized, so a later submission (e.g. a resumed sweep)
// re-executes it.
func (p *Pool) Run(ctx context.Context, cfg sim.Config) (sim.Result, error) {
	p.jobSubmitted()

	key := cfg.Key()
	if key == "" {
		// Uncacheable (caller-supplied stream): run directly.
		res, err := p.simulate(ctx, cfg, key)
		p.jobDone(false, err != nil)
		return res, err
	}

	if p.Store != nil {
		if res, ok := p.Store.Get(key); ok {
			p.jobDone(true, false)
			return res, nil
		}
	}
	p.mu.Lock()
	if e, ok := p.cache[key]; ok {
		p.mu.Unlock()
		select {
		case <-e.ready:
			p.jobDone(true, e.err != nil)
			return e.res, e.err
		case <-ctx.Done():
			p.jobDone(false, true)
			return sim.Result{}, ctx.Err()
		}
	}
	e := &entry{ready: make(chan struct{})}
	p.cache[key] = e
	p.mu.Unlock()

	e.res, e.err = p.simulate(ctx, cfg, key)
	if e.err != nil && ctx.Err() != nil {
		// Caller cancellation is not a property of the job; evict so a
		// resumed sweep re-runs it. Waiters still receive the error.
		p.mu.Lock()
		delete(p.cache, key)
		p.mu.Unlock()
	}
	close(e.ready)
	p.jobDone(false, e.err != nil)
	return e.res, e.err
}

// simulate runs one job on a worker slot, recovering panics into
// *PanicError, applying the per-job timeout, and storing successful
// results.
func (p *Pool) simulate(ctx context.Context, cfg sim.Config, key string) (res sim.Result, err error) {
	var qStart time.Time
	if p.OnJobPhase != nil {
		qStart = p.clock()
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return sim.Result{}, ctx.Err()
	}
	defer func() { <-p.sem }()
	p.markSimStarted()
	if p.OnJobPhase != nil {
		p.OnJobPhase(key, PhaseQueue, qStart, p.clock())
	}

	if p.JobTimeout > 0 {
		outer := ctx
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.JobTimeout)
		defer cancel()
		// Runs after the recover defer below (LIFO): when the inner deadline
		// fired but the caller's context is still live, the expiry is the
		// job's own timeout, not a cancellation — surface it typed.
		defer func() {
			if errors.Is(err, context.DeadlineExceeded) && outer.Err() == nil {
				err = &TimeoutError{Key: key, Limit: p.JobTimeout}
			}
		}()
	}
	defer func() {
		if v := recover(); v != nil {
			res = sim.Result{}
			err = &PanicError{Key: key, Value: v, Stack: debug.Stack()}
		}
	}()
	if p.Instrument != nil {
		p.Instrument(&cfg, key)
	}
	m := p.getMachine()
	defer p.putMachine(m)
	var rStart time.Time
	if p.OnJobPhase != nil {
		rStart = p.clock()
		// LIFO: runs before the recover defer, so even a panicking job's
		// run phase gets its end stamp.
		defer func() { p.OnJobPhase(key, PhaseRun, rStart, p.clock()) }()
	}
	res, err = m.RunCtx(ctx, cfg)
	if err == nil {
		p.pmu.Lock()
		p.events += res.Events
		p.pmu.Unlock()
		p.store(key, res)
	}
	return res, err
}

// storeFailures is the process-wide count of results that failed to reach
// a pool's Store (disk full, closed file, ...), across every pool. It is
// exported as the expvar "autorfm.checkpoint_write_failures" so a sweep's
// introspection endpoint (-http) shows silently degraded persistence before
// a resume discovers the hole.
var storeFailures = expvar.NewInt("autorfm.checkpoint_write_failures")

// StoreFailures returns how many results this pool failed to write to its
// Store. A non-zero count means a later run on the same store file will
// re-simulate the lost jobs — correct, just slower.
func (p *Pool) StoreFailures() uint64 { return p.sfails.Load() }

func (p *Pool) store(key string, res sim.Result) {
	if p.Store == nil || key == "" {
		return // no store, or an uncacheable config that cannot be keyed
	}
	if _, err := p.Store.Put(key, res); err != nil {
		p.sfails.Add(1)
		storeFailures.Add(1)
		p.swarn.Do(func() {
			fmt.Fprintf(os.Stderr,
				"runner: store write failed (sweep continues; further failures are counted, not logged): %v\n", err)
		})
	}
}

// getMachine checks a warm machine out of the free list (or makes a cold
// one). Callers hold a worker slot, so at most Workers() machines exist.
func (p *Pool) getMachine() *sim.Machine {
	p.mmu.Lock()
	defer p.mmu.Unlock()
	if n := len(p.machines); n > 0 {
		m := p.machines[n-1]
		p.machines = p.machines[:n-1]
		return m
	}
	return &sim.Machine{}
}

// putMachine returns a machine to the free list. It runs even when the job
// panicked — the machine marks itself dirty and rebuilds on next use.
func (p *Pool) putMachine(m *sim.Machine) {
	p.mmu.Lock()
	p.machines = append(p.machines, m)
	p.mmu.Unlock()
}

// clock returns the pool's time source (the now seam lets the progress
// windows be unit-tested against a fake clock).
func (p *Pool) clock() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// RunAll executes the jobs in parallel and returns their results and
// errors in input order, regardless of completion order: errs[i] is nil
// exactly when results[i] is valid. Failed jobs do not prevent the others
// from completing; reduce the slice with FirstError for fail-fast
// semantics.
func (p *Pool) RunAll(ctx context.Context, cfgs []sim.Config) ([]sim.Result, []error) {
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Run(ctx, cfgs[i])
		}(i)
	}
	wg.Wait()
	return results, errs
}

func (p *Pool) jobSubmitted() {
	p.pmu.Lock()
	if p.started.IsZero() {
		p.started = p.clock()
	}
	p.submitted++
	p.pmu.Unlock()
}

// markSimStarted anchors the simulation window at the first job that
// actually reaches a machine. A sweep resumed from a store answers
// its cached prefix without ever calling this, so rate and ETA math over
// Progress.SimElapsed ignores that prefix entirely.
func (p *Pool) markSimStarted() {
	p.pmu.Lock()
	if p.simStarted.IsZero() {
		p.simStarted = p.clock()
	}
	p.pmu.Unlock()
}

func (p *Pool) jobDone(cached, failed bool) {
	p.pmu.Lock()
	p.done++
	if cached {
		p.hits++
	}
	if failed {
		p.failed++
	}
	cb := p.OnProgress
	if cb != nil {
		now := p.clock()
		snap := Progress{
			Done:      p.done,
			Total:     p.submitted,
			CacheHits: p.hits,
			Failed:    p.failed,
			Events:    p.events,
			Elapsed:   now.Sub(p.started),
		}
		if !p.simStarted.IsZero() {
			snap.SimElapsed = now.Sub(p.simStarted)
		}
		snap.ETA = estimateETA(p.done, p.hits, p.submitted, snap.SimElapsed)
		cb(snap)
	}
	p.pmu.Unlock()
}

// estimateETA predicts the remaining wall-clock time of a sweep from the
// mean cost of the jobs simulated so far, over the simulation window
// (Progress.SimElapsed) rather than pool lifetime. Cache hits are
// excluded from the per-job cost (they complete in microseconds and would
// collapse the estimate), so an all-hits prefix yields no estimate rather
// than a bogus one — and a resumed sweep's store hits, which complete
// before the window opens, cannot tilt the estimate optimistic. Returns
// 0 — "no estimate" — when nothing is pending, nothing has been
// simulated, or the clock hasn't advanced; never negative.
func estimateETA(done, hits, total int, elapsed time.Duration) time.Duration {
	pending := total - done
	simulated := done - hits
	if pending <= 0 || simulated <= 0 || elapsed <= 0 {
		return 0
	}
	eta := elapsed / time.Duration(simulated) * time.Duration(pending)
	if eta < 0 {
		return 0
	}
	return eta
}
