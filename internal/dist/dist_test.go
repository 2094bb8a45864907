package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autorfm/internal/cpu"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/workload"
)

// sweepConfigs is a small mixed sweep: two workloads, two seeds, including
// a duplicate submission (experiments resubmit their baselines).
func sweepConfigs(t testing.TB) []sim.Config {
	return []sim.Config{
		cfg(t, "bwaves", nil),
		cfg(t, "mcf", nil),
		cfg(t, "bwaves", func(c *sim.Config) { c.Seed = 2 }),
		cfg(t, "bwaves", nil), // duplicate of job 0
	}
}

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

// run simulates c directly, failing the test on error.
func run(t testing.TB, c sim.Config) sim.Result {
	t.Helper()
	res, err := sim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderResult is the byte-level fingerprint used to compare distributed
// and local results: the full JSON encoding, every field included.
func renderResult(t testing.TB, res sim.Result) string {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// startWorker runs RunWorker against url in a goroutine, returning a channel
// that yields its final error.
func startWorker(ctx context.Context, name, url string, pool *runner.Pool) chan error {
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(ctx, WorkerOptions{
			URL:  url,
			Name: name,
			Pool: pool,
		})
		done <- err
	}()
	return done
}

// TestDistributedMatchesLocal is the fabric's core contract: a sweep run
// through coordinator + HTTP + two workers returns results byte-identical
// (via Result.String) to the same configs on a local pool.
func TestDistributedMatchesLocal(t *testing.T) {
	jobs := sweepConfigs(t)

	local, errs := runner.New(2).RunAll(context.Background(), jobs)
	if err := runner.FirstError(errs); err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(runner.NewMemStore())
	c.Publish()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w1 := startWorker(ctx, "w1", srv.URL, runner.New(1))
	w2 := startWorker(ctx, "w2", srv.URL, runner.New(1))

	got, errs := c.RunAll(ctx, jobs)
	if err := runner.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	for _, w := range []chan error{w1, w2} {
		if err := <-w; err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	}

	for i := range jobs {
		if g, l := renderResult(t, got[i]), renderResult(t, local[i]); g != l {
			t.Errorf("job %d: distributed result differs from local:\n dist: %s\nlocal: %s", i, g, l)
		}
	}

	snap := c.Snapshot()
	if snap.JobsTotal != 3 || snap.JobsDone != 3 {
		t.Errorf("snapshot jobs: %+v, want 3 total / 3 done (duplicate submission collapses)", snap)
	}
	if snap.Uploads == 0 {
		t.Errorf("snapshot records no uploads: %+v", snap)
	}
	if !snap.Drained {
		t.Errorf("snapshot not drained after Drain: %+v", snap)
	}
}

// TestLeaseExpiryRequeues: a worker that leases a job and vanishes (no
// heartbeat) loses the lease after the TTL; the job is requeued to the next
// worker, and the ghost's late upload is absorbed as a duplicate.
func TestLeaseExpiryRequeues(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCoordinator(runner.NewMemStore())
	c.now = func() time.Time { return now }
	// Disable stealing so the only way the job can move is lease expiry.
	c.MaxLeasesPerJob = 1

	job := cfg(t, "bwaves", nil)
	want := run(t, job)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, errs := c.RunAll(context.Background(), []sim.Config{job}); runner.FirstError(errs) != nil {
			t.Error(runner.FirstError(errs))
		}
	}()

	// Ghost worker leases the job, then dies silently.
	var ghost LeaseResponse
	waitFor(t, func() bool {
		ghost = c.Lease("ghost")
		return ghost.Status == StatusJob
	})

	// Before the TTL the job is held: a second worker only waits.
	if r := c.Lease("live"); r.Status != StatusWait {
		t.Fatalf("lease while job held: status %q, want %q", r.Status, StatusWait)
	}

	// Heartbeats keep it held...
	now = now.Add(c.LeaseTTL / 2)
	if !c.Heartbeat("ghost", ghost.LeaseID, nil).OK {
		t.Fatal("heartbeat within TTL rejected")
	}
	// ...until they stop: one TTL later the lease expires and the job
	// requeues.
	now = now.Add(c.LeaseTTL + time.Second)
	release := c.Lease("live")
	if release.Status != StatusJob || release.Key != ghost.Key {
		t.Fatalf("lease after expiry: %+v, want requeued job %q", release, ghost.Key)
	}
	if release.Stolen {
		t.Error("requeued job marked stolen; expiry is a requeue, not a steal")
	}
	if c.Heartbeat("ghost", ghost.LeaseID, nil).OK {
		t.Error("expired lease still heartbeats")
	}

	if resp, err := c.Complete(ResultRequest{Worker: "live", LeaseID: release.LeaseID, Key: release.Key, Result: want}); err != nil || !resp.Accepted || resp.Duplicate {
		t.Fatalf("live completion: %+v err=%v", resp, err)
	}
	// The ghost comes back from the dead and uploads anyway: acknowledged,
	// discarded.
	if resp, err := c.Complete(ResultRequest{Worker: "ghost", LeaseID: ghost.LeaseID, Key: ghost.Key, Result: want}); err != nil || !resp.Duplicate {
		t.Fatalf("ghost late upload: %+v err=%v, want duplicate ack", resp, err)
	}

	wg.Wait()
	snap := c.Snapshot()
	if snap.Requeues != 1 || snap.Duplicates != 1 || snap.Steals != 0 {
		t.Errorf("snapshot %+v, want requeues=1 duplicates=1 steals=0", snap)
	}
}

// TestWorkStealFirstResultWins: with the queue empty and a straggler
// holding the last job, an idle worker gets a duplicate (stolen) lease;
// whichever result lands first wins and the loser is absorbed.
func TestWorkStealFirstResultWins(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCoordinator(runner.NewMemStore())
	c.now = func() time.Time { return now }

	job := cfg(t, "bwaves", nil)
	want := run(t, job)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, errs := c.RunAll(context.Background(), []sim.Config{job}); runner.FirstError(errs) != nil {
			t.Error(runner.FirstError(errs))
		}
	}()

	var straggler LeaseResponse
	waitFor(t, func() bool {
		straggler = c.Lease("slow")
		return straggler.Status == StatusJob
	})

	thief := c.Lease("fast")
	if thief.Status != StatusJob || !thief.Stolen || thief.Key != straggler.Key {
		t.Fatalf("steal lease: %+v, want stolen duplicate of %q", thief, straggler.Key)
	}
	if got := servedCounters(t, c); got.Steals != 1 || got.Requeues != 0 {
		t.Errorf("served steals/requeues = %d/%d, want 1/0", got.Steals, got.Requeues)
	}
	// MaxLeasesPerJob caps further duplicates, and a worker never steals
	// a job it already leases.
	if r := c.Lease("third"); r.Status != StatusWait {
		t.Fatalf("third lease: status %q, want %q (steal headroom exhausted)", r.Status, StatusWait)
	}

	// The thief finishes first.
	if resp, err := c.Complete(ResultRequest{Worker: "fast", LeaseID: thief.LeaseID, Key: thief.Key, Result: want}); err != nil || !resp.Accepted || resp.Duplicate {
		t.Fatalf("thief completion: %+v err=%v", resp, err)
	}
	// The straggler's lease was retired with the job; its upload is a
	// duplicate.
	if c.Heartbeat("slow", straggler.LeaseID, nil).OK {
		t.Error("straggler lease outlived its job")
	}
	if resp, err := c.Complete(ResultRequest{Worker: "slow", LeaseID: straggler.LeaseID, Key: straggler.Key, Result: want}); err != nil || !resp.Duplicate {
		t.Fatalf("straggler upload: %+v err=%v, want duplicate ack", resp, err)
	}

	wg.Wait()
	snap := c.Snapshot()
	if snap.Steals != 1 || snap.Duplicates != 1 || snap.Requeues != 0 {
		t.Errorf("snapshot %+v, want steals=1 duplicates=1 requeues=0", snap)
	}
}

// TestCoordinatorRestartResumesFromStore: results persisted by one
// coordinator incarnation satisfy the next one without re-running anything.
func TestCoordinatorRestartResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	jobs := sweepConfigs(t)

	// First incarnation completes only job 0, then "crashes" (goes away
	// without Drain).
	s1, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCoordinator(s1)
	ctx, cancel := context.WithCancel(context.Background())
	go c1.RunAll(ctx, jobs)
	var l LeaseResponse
	waitFor(t, func() bool {
		l = c1.Lease("w1")
		return l.Status == StatusJob
	})
	res := run(t, l.Config)
	if _, err := c1.Complete(ResultRequest{Worker: "w1", LeaseID: l.LeaseID, Key: l.Key, Result: res}); err != nil {
		t.Fatal(err)
	}
	cancel()
	s1.Close()

	// Second incarnation opens the same store: the completed job is a hit,
	// the rest run fresh.
	s2, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(s2)
	srv := httptest.NewServer(c2.Handler())
	defer srv.Close()
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	w := startWorker(wctx, "w2", srv.URL, runner.New(1))

	got, errs := c2.RunAll(wctx, jobs)
	if err := runner.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	c2.Drain()
	if err := <-w; err != nil {
		t.Fatalf("worker exit: %v", err)
	}

	local, lerrs := runner.New(2).RunAll(context.Background(), jobs)
	if err := runner.FirstError(lerrs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if renderResult(t, got[i]) != renderResult(t, local[i]) {
			t.Errorf("job %d after restart differs from local run", i)
		}
	}
	snap := c2.Snapshot()
	if snap.StoreHits != 1 {
		t.Errorf("snapshot store hits = %d, want 1 (the pre-restart result)", snap.StoreHits)
	}
}

// TestWorkerJobErrorTravelsVerbatim: a deterministic job failure is
// reported to the coordinator as its rendered error string and surfaces
// from RunAll exactly as a local run would render it.
func TestWorkerJobErrorTravelsVerbatim(t *testing.T) {
	doomed := cfg(t, "bwaves", func(c *sim.Config) { c.Cores = -1 })
	_, wantErr := sim.Run(doomed)
	if wantErr == nil {
		t.Fatal("doomed config ran clean; pick a config sim.Run rejects")
	}

	c := NewCoordinator(runner.NewMemStore())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := startWorker(ctx, "w1", srv.URL, runner.New(1))

	_, errs := c.RunAll(ctx, []sim.Config{doomed})
	c.Drain()
	if err := <-w; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if errs[0] == nil || errs[0].Error() != wantErr.Error() {
		t.Errorf("distributed error %q, want local error %q verbatim", errs[0], wantErr)
	}
	// Failures never reach the store: they are cheap to reproduce and must
	// re-run after a restart.
	if c.Store().Len() != 0 {
		t.Errorf("store holds %d results after a failed job, want 0", c.Store().Len())
	}
}

// TestKeylessConfigRejected: configs with caller-supplied hooks are not
// content-addressable and must fail fast instead of being shipped over the
// wire to a worker that cannot reconstruct the hook.
func TestKeylessConfigRejected(t *testing.T) {
	c := NewCoordinator(runner.NewMemStore())
	keyless := cfg(t, "bwaves", nil)
	keyless.NewStream = func(core int) cpu.Stream { return nil }
	if keyless.Key() != "" {
		t.Fatal("hooked config has a key; this test needs a keyless one")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, errs := c.RunAll(ctx, []sim.Config{keyless})
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "not memoizable") {
		t.Fatalf("keyless config error = %v, want immediate not-memoizable rejection", errs[0])
	}
	if ctx.Err() != nil {
		t.Fatal("RunAll blocked on a keyless config instead of failing it fast")
	}
}

// TestWorkerLosesCoordinator: after the coordinator vanishes mid-job, the
// worker finishes the job, flushes it to its local store, and exits with
// ErrCoordinatorLost — bounded retries, no hang, no lost work.
func TestWorkerLosesCoordinator(t *testing.T) {
	c := NewCoordinator(runner.NewMemStore())
	job := cfg(t, "bwaves", nil)
	go c.RunAll(context.Background(), []sim.Config{job})
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.queue) > 0
	})

	// Proxy that serves exactly one /lease, then answers everything with
	// 500 — the coordinator is "gone" the moment the worker has its job.
	inner := c.Handler()
	var leased atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/lease" && leased.CompareAndSwap(false, true) {
			inner.ServeHTTP(w, r)
			return
		}
		http.Error(w, "coordinator lost", http.StatusInternalServerError)
	}))
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "spill.jsonl")
	spill, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(1)
	pool.Store = spill

	start := time.Now()
	_, err = RunWorker(context.Background(), WorkerOptions{
		URL:         srv.URL,
		Name:        "w1",
		Pool:        pool,
		MaxRetries:  3,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	if !errors.Is(err, ErrCoordinatorLost) {
		t.Fatalf("worker exit error = %v, want ErrCoordinatorLost", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("worker took %v to give up; retries are not bounded", elapsed)
	}

	// The in-flight job was finished and flushed before the worker gave up:
	// reopening its local spill file recovers the result.
	spill.Close()
	recovered, err := runner.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if _, ok := recovered.Get(job.Key()); !ok {
		t.Fatalf("worker's spill file is missing the in-flight job (keys: %v)", recovered.Keys())
	}
}

// TestProtocolVersionRejected: a mismatched wire version is refused with
// 400, and the worker treats that as fatal rather than retrying.
func TestProtocolVersionRejected(t *testing.T) {
	c := NewCoordinator(runner.NewMemStore())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/lease", "application/json",
		strings.NewReader(`{"proto":"autorfm-dist/v0","worker":"old"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched proto got %s, want 400", resp.Status)
	}

	w := &worker{opt: WorkerOptions{
		URL:        srv.URL,
		Name:       "old",
		Client:     srv.Client(),
		MaxRetries: 3,
	}}
	var lease LeaseResponse
	werr := w.post(context.Background(), "/lease", LeaseRequest{Proto: "autorfm-dist/v0", Worker: "old"}, &lease)
	if werr == nil || errors.Is(werr, ErrCoordinatorLost) {
		t.Fatalf("worker error = %v, want immediate non-retried rejection", werr)
	}
	if w.stats.Retries != 0 {
		t.Errorf("worker retried a 400 response %d times; 4xx must fail fast", w.stats.Retries)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
