package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"autorfm/internal/cpu"
	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

func cfg(t testing.TB, wl string, mut func(*sim.Config)) sim.Config {
	t.Helper()
	p, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Config{Workload: p, InstructionsPerCore: 30_000, Seed: 1}
	if mut != nil {
		mut(&c)
	}
	return c
}

// TestRunAllOrderAndDeterminism: results come back in input order and are
// identical to direct serial sim.Run calls, at any worker count.
func TestRunAllOrderAndDeterminism(t *testing.T) {
	jobs := []sim.Config{
		cfg(t, "bwaves", nil),
		cfg(t, "mcf", nil),
		cfg(t, "bwaves", func(c *sim.Config) { c.Seed = 2 }),
	}
	want := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		w, err := sim.Run(j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		got, errs := New(workers).RunAll(ctx, jobs)
		if err := FirstError(errs); err != nil {
			t.Fatal(err)
		}
		for i := range jobs {
			if got[i].Elapsed != want[i].Elapsed || got[i].MC.Acts != want[i].MC.Acts {
				t.Errorf("workers=%d job %d: got elapsed=%v acts=%d, want %v/%d",
					workers, i, got[i].Elapsed, got[i].MC.Acts, want[i].Elapsed, want[i].MC.Acts)
			}
		}
	}
}

// TestCacheDeduplicates: identical configs — including ones that only
// normalize equal — are simulated once.
func TestCacheDeduplicates(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	base := cfg(t, "bwaves", nil)
	defaulted := base
	defaulted.Cores = 8 // the default; must share base's cache key
	jobs := []sim.Config{base, base, defaulted, base}
	if _, errs := p.RunAll(ctx, jobs); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	hits, misses := p.CacheStats()
	if misses != 1 || hits != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/1", hits, misses)
	}
	// A second round is fully cached.
	if _, err := p.Run(ctx, base); err != nil {
		t.Fatal(err)
	}
	if hits, misses = p.CacheStats(); misses != 1 || hits != 4 {
		t.Fatalf("after rerun: hits=%d misses=%d, want 4/1", hits, misses)
	}
}

// TestUncacheableStream: a NewStream config has no key and always runs.
func TestUncacheableStream(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	c := cfg(t, "bwaves", func(c *sim.Config) {
		c.Cores = 1
		c.NewStream = func(core int) cpu.Stream {
			return workload.NewGenerator(c.Workload, core, 7)
		}
	})
	if c.Key() != "" {
		t.Fatal("NewStream config has a cache key")
	}
	if _, errs := p.RunAll(ctx, []sim.Config{c, c}); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	if hits, misses := p.CacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
}

// TestErrorPropagates: a bad config fails its job without poisoning the
// others, and the error slice pinpoints which job failed.
func TestErrorPropagates(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	jobs := []sim.Config{
		cfg(t, "bwaves", nil),
		cfg(t, "bwaves", func(c *sim.Config) { c.Tracker = "bogus" }),
	}
	res, errs := p.RunAll(ctx, jobs)
	if errs[0] != nil {
		t.Fatalf("healthy job failed: %v", errs[0])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "bogus") {
		t.Fatalf("errs[1] = %v", errs[1])
	}
	if err := FirstError(errs); err != errs[1] {
		t.Fatalf("FirstError = %v, want errs[1]", err)
	}
	if res[0].MC.Acts == 0 {
		t.Error("healthy job did not complete")
	}
	// The failure is cached too: re-running returns the same error.
	if _, err2 := p.Run(ctx, jobs[1]); err2 == nil {
		t.Error("cached failure did not re-report its error")
	}
}

// TestPanicIsolation: a job that panics mid-simulation becomes a
// *PanicError carrying the config key and stack; sibling jobs complete.
func TestPanicIsolation(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	doomed := cfg(t, "bwaves", func(c *sim.Config) {
		c.Mode, c.TH = dram.ModeAutoRFM, 4
		c.Fault = fault.Config{PanicAfterActs: 1}
	})
	jobs := []sim.Config{cfg(t, "bwaves", nil), doomed, cfg(t, "mcf", nil)}
	res, errs := p.RunAll(ctx, jobs)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("sibling jobs failed: %v / %v", errs[0], errs[2])
	}
	if res[0].MC.Acts == 0 || res[2].MC.Acts == 0 {
		t.Fatal("sibling jobs did not complete")
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("errs[1] = %v (%T), want *PanicError", errs[1], errs[1])
	}
	if pe.Key != doomed.Key() {
		t.Errorf("PanicError.Key = %q, want %q", pe.Key, doomed.Key())
	}
	if !strings.Contains(string(pe.Stack), "OnActivation") {
		t.Error("PanicError.Stack does not reach the panic site")
	}
	if !strings.Contains(pe.Error(), "injected tracker panic") {
		t.Errorf("PanicError.Error() = %q", pe.Error())
	}
	// Deterministic panics are memoized like any failure.
	if _, err := p.Run(ctx, doomed); !errors.As(err, &pe) {
		t.Errorf("cached panic came back as %v", err)
	}
	if hits, misses := p.CacheStats(); hits != 1 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3", hits, misses)
	}
}

// TestCancellation: a cancelled context stops in-flight jobs promptly,
// reports ctx.Err(), and does not poison the cache — resubmitting the
// cancelled config re-runs it to completion.
func TestCancellation(t *testing.T) {
	p := New(1)
	job := cfg(t, "bwaves", func(c *sim.Config) { c.InstructionsPerCore = 5_000_000 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The eviction means a fresh context re-runs the job for real.
	quick := cfg(t, "bwaves", nil)
	if _, err := p.Run(context.Background(), quick); err != nil {
		t.Fatal(err)
	}
}

// TestJobTimeout: a job exceeding JobTimeout fails with a *TimeoutError
// that still unwraps to DeadlineExceeded, carries the job's key and the
// limit that expired, and renders as "timeout after X" — while an untimed
// sibling completes.
func TestJobTimeout(t *testing.T) {
	p := New(2)
	p.JobTimeout = time.Millisecond
	slow := cfg(t, "bwaves", func(c *sim.Config) { c.InstructionsPerCore = 50_000_000 })
	_, err := p.Run(context.Background(), slow)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded via unwrap", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want *TimeoutError", err, err)
	}
	if te.Key != slow.Key() || te.Limit != time.Millisecond {
		t.Errorf("TimeoutError = %+v, want key %q limit 1ms", te, slow.Key())
	}
	if got := te.Error(); got != "timeout after 1ms" {
		t.Errorf("Error() = %q, want %q", got, "timeout after 1ms")
	}
	p2 := New(2) // fresh pool without the timeout
	if _, err := p2.Run(context.Background(), cfg(t, "bwaves", nil)); err != nil {
		t.Fatal(err)
	}
}

// TestCallerDeadlineIsNotJobTimeout: when the caller's own context expires,
// the error stays a plain DeadlineExceeded (and is evicted, like any
// cancellation) rather than being misreported as the job's timeout.
func TestCallerDeadlineIsNotJobTimeout(t *testing.T) {
	p := New(1)
	p.JobTimeout = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	slow := cfg(t, "bwaves", func(c *sim.Config) { c.InstructionsPerCore = 50_000_000 })
	_, err := p.Run(ctx, slow)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("caller deadline surfaced as job *TimeoutError: %v", err)
	}
}

// TestProgressAccounting: every submitted job produces exactly one
// progress callback, with monotonically complete final state.
func TestProgressAccounting(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	var mu sync.Mutex
	var last Progress
	calls := 0
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		last = pr
		calls++
		mu.Unlock()
	}
	jobs := []sim.Config{
		cfg(t, "bwaves", nil),
		cfg(t, "bwaves", nil), // cache hit
		cfg(t, "mcf", nil),
	}
	if _, errs := p.RunAll(ctx, jobs); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	if calls != 3 || last.Done != 3 || last.Total != 3 || last.CacheHits != 1 {
		t.Fatalf("calls=%d last=%+v", calls, last)
	}
}

// TestEstimateETA: the estimator must survive the edge cases that used to
// produce divisions by zero and negative ETAs.
func TestEstimateETA(t *testing.T) {
	cases := []struct {
		name                string
		done, hits, total   int
		elapsed             time.Duration
		want                time.Duration
		wantZero, wantAbove bool
	}{
		{name: "nothing done", done: 0, hits: 0, total: 10, elapsed: 0, wantZero: true},
		{name: "all cache hits", done: 5, hits: 5, total: 10, elapsed: time.Millisecond, wantZero: true},
		{name: "nothing pending", done: 10, hits: 2, total: 10, elapsed: time.Second, wantZero: true},
		{name: "clock not advanced", done: 3, hits: 0, total: 10, elapsed: 0, wantZero: true},
		{name: "half done", done: 5, hits: 0, total: 10, elapsed: 10 * time.Second, want: 10 * time.Second},
		{name: "hits excluded", done: 6, hits: 4, total: 10, elapsed: 10 * time.Second, want: 20 * time.Second},
		{name: "overshoot clamped", done: 11, hits: 0, total: 10, elapsed: time.Second, wantZero: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := estimateETA(tc.done, tc.hits, tc.total, tc.elapsed)
			if got < 0 {
				t.Fatalf("negative ETA %v", got)
			}
			if tc.wantZero && got != 0 {
				t.Fatalf("got %v, want 0", got)
			}
			if !tc.wantZero && got != tc.want {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCheckpointRoundTrip: results one pool stores preload another pool
// opened on the same file and are served as byte-for-byte identical
// results without re-simulation.
func TestCheckpointRoundTrip(t *testing.T) {
	ctx := context.Background()
	jobs := []sim.Config{
		cfg(t, "bwaves", nil),
		cfg(t, "mcf", nil),
	}

	s1, path := openWith(t, "")
	p1 := New(2)
	p1.Store = s1
	want, errs := p1.RunAll(ctx, jobs)
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(jobs) {
		t.Fatalf("loaded %d records, want %d", s2.Len(), len(jobs))
	}
	p2 := New(2)
	p2.Store = s2
	got, errs := p2.RunAll(ctx, jobs)
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d: resumed result differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if hits, misses := p2.CacheStats(); hits != len(jobs) || misses != 0 {
		t.Fatalf("resumed pool simulated: hits=%d misses=%d", hits, misses)
	}
}

// TestCheckpointSkipsDamage: truncated trailing lines (a kill mid-write)
// and records with stale keys are skipped; intact records are still
// served from the store.
func TestCheckpointSkipsDamage(t *testing.T) {
	ctx := context.Background()
	job := cfg(t, "bwaves", nil)
	s, _ := openWith(t, "{\"key\":\"stale-key\",\"result\":{}}\n"+ // key mismatch
		line(t, job.Key(), run(t, job))+ // intact record
		"{\"key\":\"trunc") // torn final write
	if s.Len() != 1 {
		t.Fatalf("loaded %d records, want 1", s.Len())
	}
	p := New(1)
	p.Store = s
	if _, err := p.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	if hits, _ := p.CacheStats(); hits != 1 {
		t.Fatal("intact record was not served from the store")
	}
}

// TestCheckpointWriteFailureCounted: a failing store does not lose errors
// silently — every failed write increments the pool's counter, which the
// CLIs report at exit, while the sweep itself keeps succeeding.
func TestCheckpointWriteFailureCounted(t *testing.T) {
	ctx := context.Background()
	s, _ := openWith(t, "")
	p := New(2)
	p.Store = s
	if _, err := p.Run(ctx, cfg(t, "bwaves", nil)); err != nil {
		t.Fatal(err)
	}
	// Pull the file out from under the store: every later append fails.
	s.f.Close()
	jobs := []sim.Config{
		cfg(t, "mcf", nil),
		cfg(t, "pagerank", nil),
	}
	if _, errs := p.RunAll(ctx, jobs); FirstError(errs) != nil {
		t.Fatalf("sweep failed on a bad store: %v", FirstError(errs))
	}
	if got := p.StoreFailures(); got != 2 {
		t.Fatalf("StoreFailures = %d, want 2 (one write succeeded)", got)
	}
	// A healthy pool reports zero.
	p2 := New(1)
	p2.Store = NewMemStore()
	if _, err := p2.Run(ctx, cfg(t, "bwaves", nil)); err != nil {
		t.Fatal(err)
	}
	if got := p2.StoreFailures(); got != 0 {
		t.Fatalf("healthy pool StoreFailures = %d, want 0", got)
	}
}

// TestInstrumentOnlySimulatedJobs: the Instrument hook fires once per
// actual simulation — cache hits and in-flight duplicates re-deliver the
// memoized Result without re-instrumenting, and the hook's config mutation
// stays private to the simulated job (the caller's slice is untouched).
func TestInstrumentOnlySimulatedJobs(t *testing.T) {
	ctx := context.Background()
	p := New(4)
	var mu sync.Mutex
	var keys []string
	p.Instrument = func(c *sim.Config, key string) {
		mu.Lock()
		keys = append(keys, key)
		mu.Unlock()
		c.Telemetry = nil // mutation must not leak to the submitted configs
	}
	base := cfg(t, "bwaves", nil)
	jobs := []sim.Config{base, base, cfg(t, "mcf", nil), base}
	if _, errs := p.RunAll(ctx, jobs); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	if len(keys) != 2 {
		t.Fatalf("Instrument fired %d times (%v), want 2 (one per unique config)", len(keys), keys)
	}
	if keys[0] == "" || keys[1] == "" || keys[0] == keys[1] {
		t.Fatalf("bad keys: %v", keys)
	}
	// A second submission of the cached config must not re-instrument.
	if _, err := p.Run(ctx, base); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("cache hit re-ran Instrument: %v", keys)
	}
}

// TestInstrumentUncacheable: keyless (NewStream) jobs are always simulated,
// so each submission instruments with an empty key.
func TestInstrumentUncacheable(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	var mu sync.Mutex
	empties := 0
	p.Instrument = func(c *sim.Config, key string) {
		mu.Lock()
		if key == "" {
			empties++
		}
		mu.Unlock()
	}
	c := cfg(t, "bwaves", func(c *sim.Config) {
		c.Cores = 1
		c.NewStream = func(core int) cpu.Stream {
			return workload.NewGenerator(c.Workload, core, 7)
		}
	})
	if _, errs := p.RunAll(ctx, []sim.Config{c, c}); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	if empties != 2 {
		t.Fatalf("keyless jobs instrumented %d times, want 2", empties)
	}
}

// TestProgressFailedAndEvents: a failed job still completes in the
// progress count, and SimulatedEvents sums only the jobs that succeeded.
func TestProgressFailedAndEvents(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	var mu sync.Mutex
	var last Progress
	p.OnProgress = func(pr Progress) {
		mu.Lock()
		last = pr
		mu.Unlock()
	}
	bad := cfg(t, "bwaves", func(c *sim.Config) { c.Cores = -1 })
	jobs := []sim.Config{cfg(t, "bwaves", nil), bad, cfg(t, "mcf", nil)}
	results, errs := p.RunAll(ctx, jobs)
	if FirstError(errs) == nil {
		t.Fatal("bad config did not fail")
	}
	if last.Done != 3 || last.Total != 3 {
		t.Fatalf("progress %+v, want Done=3 Total=3", last)
	}
	wantEvents := results[0].Events + results[2].Events
	if got := p.SimulatedEvents(); got != wantEvents {
		t.Fatalf("SimulatedEvents = %d, want %d (sum of successful jobs)", got, wantEvents)
	}
}

// TestSimWindowExcludesPreload is the regression test for the post-resume
// rate skew: a sweep that opens with a preloaded (checkpoint/store-hit)
// prefix must not count the preload's wall time — or its jobs — in the
// simulation window that throughput and ETA are computed over.
func TestSimWindowExcludesPreload(t *testing.T) {
	p := New(1)
	now := time.Unix(1_000, 0)
	p.now = func() time.Time { return now }
	var last Progress
	p.OnProgress = func(pr Progress) { last = pr }

	// A resumed sweep: 10 jobs submitted, the first 5 answered from the
	// preloaded cache while the clock stands still.
	for i := 0; i < 10; i++ {
		p.jobSubmitted()
	}
	for i := 0; i < 5; i++ {
		p.jobDone(true)
	}
	if last.SimElapsed != 0 || last.ETA != 0 {
		t.Fatalf("all-hits prefix: SimElapsed=%v ETA=%v, want 0/0", last.SimElapsed, last.ETA)
	}

	// 100s pass before the first real simulation gets going (preload I/O,
	// queue wait), then one job simulates for 10s.
	now = now.Add(100 * time.Second)
	p.markSimStarted()
	now = now.Add(10 * time.Second)
	p.jobDone(false)

	if last.Elapsed != 110*time.Second {
		t.Fatalf("Elapsed = %v, want 110s", last.Elapsed)
	}
	if last.SimElapsed != 10*time.Second {
		t.Fatalf("SimElapsed = %v, want 10s (preload window excluded)", last.SimElapsed)
	}
	// ETA over the sim window: 10s for 1 simulated job, 4 pending → 40s.
	// The old pool-lifetime window would have said 440s.
	if last.ETA != 40*time.Second {
		t.Fatalf("ETA = %v, want 40s", last.ETA)
	}
}

// TestSimWindowEndToEnd: the same invariant through the public API — a
// pool whose store already holds a job reports SimElapsed only once a job
// actually simulates, and store hits never open the window.
func TestSimWindowEndToEnd(t *testing.T) {
	ctx := context.Background()
	job := cfg(t, "bwaves", nil)

	p := New(1)
	p.Store = NewMemStore()
	if _, err := p.Store.Put(job.Key(), run(t, job)); err != nil {
		t.Fatal(err)
	}
	var last Progress
	p.OnProgress = func(pr Progress) { last = pr }
	if _, err := p.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	if last.CacheHits != 1 {
		t.Fatalf("stored job not a cache hit: %+v", last)
	}
	if last.SimElapsed != 0 {
		t.Fatalf("store hit opened the sim window: SimElapsed=%v", last.SimElapsed)
	}
	fresh := cfg(t, "bwaves", func(c *sim.Config) { c.Seed = 99 })
	if _, err := p.Run(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if last.SimElapsed <= 0 {
		t.Fatalf("simulated job did not open the sim window: %+v", last)
	}
	if last.SimElapsed > last.Elapsed {
		t.Fatalf("SimElapsed %v exceeds Elapsed %v", last.SimElapsed, last.Elapsed)
	}
}

// TestOnJobPhase: simulated jobs report queue and run phases with sane
// bounds, cache hits report nothing, and concurrent jobs each report their
// own phases under their own key.
func TestOnJobPhase(t *testing.T) {
	ctx := context.Background()
	p := New(2)
	var mu sync.Mutex
	phases := map[string][]string{}
	p.OnJobPhase = func(key, phase string, start, end time.Time) {
		if end.Before(start) {
			t.Errorf("phase %s of %s ends before it starts", phase, key)
		}
		mu.Lock()
		phases[key] = append(phases[key], phase)
		mu.Unlock()
	}
	job := cfg(t, "bwaves", nil)
	if _, err := p.Run(ctx, job); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(ctx, job); err != nil { // cache hit
		t.Fatal(err)
	}
	key := job.Key()
	mu.Lock()
	got := phases[key]
	mu.Unlock()
	if len(got) != 2 || got[0] != PhaseQueue || got[1] != PhaseRun {
		t.Fatalf("phases for simulated job = %v, want [queue run] exactly once", got)
	}

	// Seeds of one config family run concurrently: every key reports its
	// own phases.
	seeds := []sim.Config{
		cfg(t, "mcf", func(c *sim.Config) { c.Seed = 1 }),
		cfg(t, "mcf", func(c *sim.Config) { c.Seed = 2 }),
	}
	if _, errs := p.RunAll(ctx, seeds); FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	for _, c := range seeds {
		mu.Lock()
		got := phases[c.Key()]
		mu.Unlock()
		if len(got) != 2 || got[0] != PhaseQueue || got[1] != PhaseRun {
			t.Fatalf("phases for seed %d = %v, want [queue run]", c.Seed, got)
		}
	}
}
