package dist

// Observability-layer tests: span tracing through the lease protocol,
// flight-record persistence and footnotes, the stall detector, and the
// forward/backward protocol compatibility the optional fields promise.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
)

// spanNames collects the span names recorded for one job key.
func spanNames(spans []telemetry.Span, key string) map[string]int {
	names := map[string]int{}
	for _, s := range spans {
		if s.Key == key {
			names[s.Name]++
		}
	}
	return names
}

// TestSpanTraceEndToEnd runs a real coordinator + HTTP + two flight-armed
// workers over a sweep that includes one deterministically panicking job,
// then checks the acceptance criteria of the tracing tentpole: a merged
// trace covering every job's lifecycle, worker execution phases riding the
// uploads, a flight record linked from the ERR footnote, valid span-log
// and Chrome-trace exports, and a Prometheus /metrics endpoint.
func TestSpanTraceEndToEnd(t *testing.T) {
	jobs := sweepConfigs(t)
	doomed := cfg(t, "bwaves", func(c *sim.Config) {
		c.Mode, c.TH = dram.ModeAutoRFM, 4
		c.Fault = fault.Config{PanicAfterActs: 1}
	})
	jobs = append(jobs, doomed)

	flights, err := telemetry.NewFlightStore("")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(runner.NewMemStore())
	c.Trace = true
	c.Fleet = telemetry.NewFleet()
	c.Flights = flights
	// Fast heartbeats so the trace records some and metrics piggyback.
	c.LeaseTTL = 300 * time.Millisecond
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workers := []chan error{}
	for _, name := range []string{"w1", "w2"} {
		done := make(chan error, 1)
		go func(name string) {
			_, err := RunWorker(ctx, WorkerOptions{
				URL: srv.URL, Name: name, Pool: runner.New(1), Flight: true,
			})
			done <- err
		}(name)
		workers = append(workers, done)
	}

	_, errs := c.RunAll(ctx, jobs)
	c.Drain()
	for _, w := range workers {
		if err := <-w; err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	}

	// The doomed job failed with a footnote linking its flight record.
	doomedErr := errs[len(errs)-1]
	if doomedErr == nil || !strings.Contains(doomedErr.Error(), "injected tracker panic") {
		t.Fatalf("doomed job error = %v, want injected panic", doomedErr)
	}
	i := strings.Index(doomedErr.Error(), " [flight ")
	if i < 0 {
		t.Fatalf("doomed job footnote lacks flight link: %v", doomedErr)
	}
	id := strings.TrimSuffix(doomedErr.Error()[i+len(" [flight "):], "]")
	rec, err := flights.Get(id)
	if err != nil {
		t.Fatalf("footnoted flight record %q: %v", id, err)
	}
	if rec.Key != doomed.Key() || !strings.Contains(rec.Stack, "OnActivation") {
		t.Errorf("flight record key=%q stack reaches panic site=%v", rec.Key, strings.Contains(rec.Stack, "OnActivation"))
	}

	// Every job's lifecycle is covered, including worker execution phases.
	spans := c.Spans()
	for _, job := range jobs {
		names := spanNames(spans, job.Key())
		for _, want := range []string{telemetry.SpanSubmit, telemetry.SpanLease, telemetry.SpanUpload, telemetry.SpanQueue, telemetry.SpanRun} {
			if names[want] == 0 {
				t.Errorf("job %s has no %q span (got %v)", shortKey(job.Key()), want, names)
			}
		}
	}

	// Both exports validate with the shared validators.
	var log bytes.Buffer
	if err := c.WriteSpanLog(&log); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&log)
	lines := 0
	for sc.Scan() {
		if err := telemetry.ValidateSpanLine(sc.Bytes()); err != nil {
			t.Fatalf("span log line %d: %v", lines+1, err)
		}
		lines++
	}
	if lines != len(spans) {
		t.Errorf("span log has %d lines, want %d", lines, len(spans))
	}
	var chrome bytes.Buffer
	if err := c.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(chrome.Bytes()); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	for _, track := range []string{`"coordinator"`, `"worker w1"`, `"worker w2"`} {
		if !bytes.Contains(chrome.Bytes(), []byte(track)) {
			t.Errorf("chrome trace lacks track %s", track)
		}
	}

	// /metrics serves the Prometheus text exposition with fleet gauges.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{"autorfm_fleet_workers", "autorfm_worker_events_total", "autorfm_family_jobs_total"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, prom.String())
		}
	}
}

// servedCounters publishes c and reads its requeue and steal counters the
// way an operator does: from "autorfm.coord" on /debug/vars and from the
// fleet series on /metrics. The two surfaces must agree, because the
// coordinator owns both counters.
func servedCounters(t *testing.T, c *Coordinator) telemetry.CoordSnapshot {
	t.Helper()
	c.Publish()
	get := func(path string) []byte {
		rr := httptest.NewRecorder()
		c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Body.Bytes()
	}
	var vars struct {
		Coord telemetry.CoordSnapshot `json:"autorfm.coord"`
	}
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatal(err)
	}
	prom := string(get("/metrics"))
	for _, m := range []struct {
		series string
		want   int64
	}{
		{"autorfm_fleet_requeues_total", vars.Coord.Requeues},
		{"autorfm_fleet_steals_total", vars.Coord.Steals},
	} {
		if line := fmt.Sprintf("\n%s %d\n", m.series, m.want); !strings.Contains(prom, line) {
			t.Errorf("/metrics lacks %q (autorfm.coord says %d):\n%s", strings.TrimSpace(line), m.want, prom)
		}
	}
	return vars.Coord
}

// TestLeaseExpirySpans pins the crashed-worker trace: the SIGKILL'd
// worker's lease closes with an "expired" detail, a requeue instant lands,
// and the second grant carries attempt 2.
func TestLeaseExpirySpans(t *testing.T) {
	now := time.Unix(1000, 0)
	c := NewCoordinator(runner.NewMemStore())
	c.now = func() time.Time { return now }
	c.Trace = true
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

	var ghost LeaseResponse
	waitFor(t, func() bool {
		ghost = c.Lease("ghost")
		return ghost.Status == StatusJob
	})
	if ghost.Attempt != 1 || !ghost.Trace {
		t.Fatalf("first lease attempt=%d trace=%v, want 1/true", ghost.Attempt, ghost.Trace)
	}

	// The ghost dies; one TTL later the job requeues to a live worker.
	now = now.Add(c.LeaseTTL + time.Second)
	release := c.Lease("live")
	if release.Status != StatusJob || release.Attempt != 2 {
		t.Fatalf("post-expiry lease %+v, want attempt 2 of %q", release, ghost.Key)
	}
	if got := servedCounters(t, c); got.Requeues != 1 || got.Steals != 0 {
		t.Errorf("served requeues/steals = %d/%d, want 1/0", got.Requeues, got.Steals)
	}
	if resp, err := c.Complete(ResultRequest{Worker: "live", LeaseID: release.LeaseID, Key: release.Key, Result: want}); err != nil || !resp.Accepted {
		t.Fatalf("completion: %+v err=%v", resp, err)
	}
	wg.Wait()

	spans := c.Spans()
	names := spanNames(spans, job.Key())
	if names[telemetry.SpanRequeue] != 1 || names[telemetry.SpanLease] != 2 || names[telemetry.SpanUpload] != 1 {
		t.Fatalf("span names %v, want 1 requeue, 2 leases, 1 upload", names)
	}
	var expired, completed bool
	for _, s := range spans {
		if s.Name == telemetry.SpanLease && s.Worker == "ghost" && s.Detail == "expired" {
			expired = true
		}
		if s.Name == telemetry.SpanLease && s.Worker == "live" && s.Detail == "result" && s.Attempt == 2 {
			completed = true
		}
	}
	if !expired || !completed {
		t.Errorf("lease spans lack expiry/result details: %+v", spans)
	}
}

// TestStallDetectorRequestsProfile: once a family has enough completed
// jobs, a lease running past the rolling p99 gets exactly one
// profile-capture request and a stall span.
func TestStallDetectorRequestsProfile(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := NewCoordinator(runner.NewMemStore())
	c.now = clock
	c.Trace = true
	c.Fleet = telemetry.NewFleet()
	c.Fleet.SetClock(clock)

	job := cfg(t, "bwaves", nil)
	family := familyOf(&job)
	for i := 0; i < telemetry.MinStallSamples; i++ {
		c.Fleet.JobDone(family, 10*time.Millisecond)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.RunAll(context.Background(), []sim.Config{job})
	}()
	var l LeaseResponse
	waitFor(t, func() bool {
		l = c.Lease("slow")
		return l.Status == StatusJob
	})

	// Within the p99 nothing happens; far past it the detector fires once.
	now = now.Add(5 * time.Millisecond)
	if resp := c.Heartbeat("slow", l.LeaseID, nil); !resp.OK || resp.Profile {
		t.Fatalf("heartbeat within p99: %+v", resp)
	}
	now = now.Add(2 * time.Second)
	if resp := c.Heartbeat("slow", l.LeaseID, &telemetry.WorkerMetrics{Events: 1}); !resp.OK || !resp.Profile {
		t.Fatalf("heartbeat past p99: %+v, want profile request", resp)
	}
	if resp := c.Heartbeat("slow", l.LeaseID, nil); !resp.OK || resp.Profile {
		t.Fatalf("second stalled heartbeat: %+v, want profile requested only once", resp)
	}
	if n := spanNames(c.Spans(), job.Key())[telemetry.SpanStall]; n != 1 {
		t.Errorf("stall spans = %d, want 1", n)
	}
	snap := c.Fleet.Snapshot()
	if len(snap.Families) != 1 || snap.Families[0].Stalls != 1 {
		t.Errorf("fleet families %+v, want one family with 1 stall", snap.Families)
	}

	res := run(t, job)
	if _, err := c.Complete(ResultRequest{Worker: "slow", LeaseID: l.LeaseID, Key: l.Key, Result: res}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// Legacy protocol shapes, frozen as they were before the observability
// fields landed. The compat tests speak them against current code.
type legacyLeaseRequest struct {
	Proto  string `json:"proto"`
	Worker string `json:"worker"`
}

type legacyLeaseResponse struct {
	Status  string     `json:"status"`
	Key     string     `json:"key,omitempty"`
	Config  sim.Config `json:"config"`
	LeaseID uint64     `json:"lease_id,omitempty"`
	TTLMS   int64      `json:"ttl_ms,omitempty"`
	Stolen  bool       `json:"stolen,omitempty"`
	RetryMS int64      `json:"retry_ms,omitempty"`
}

type legacyHeartbeatRequest struct {
	Proto   string `json:"proto"`
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
}

type legacyHeartbeatResponse struct {
	OK bool `json:"ok"`
}

type legacyResultRequest struct {
	Proto   string     `json:"proto"`
	Worker  string     `json:"worker"`
	LeaseID uint64     `json:"lease_id"`
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
	Error   string     `json:"error,omitempty"`
}

type legacyResultResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}

// postJSON is the compat tests' bare-bones client.
func postJSON(t *testing.T, url string, in, out interface{}) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolCompatOldWorkerNewCoordinator drives a current coordinator —
// tracing, fleet and flights all on — with a worker speaking the
// pre-observability wire format. The sweep must complete exactly as
// before: the new response fields are ignored by the old decoder, and the
// missing request fields decode to zero values the coordinator tolerates.
func TestProtocolCompatOldWorkerNewCoordinator(t *testing.T) {
	flights, err := telemetry.NewFlightStore("")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(runner.NewMemStore())
	c.Trace = true
	c.Fleet = telemetry.NewFleet()
	c.Flights = flights
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	job := cfg(t, "bwaves", nil)
	want := run(t, job)

	var wg sync.WaitGroup
	wg.Add(1)
	var errs []error
	go func() {
		defer wg.Done()
		_, errs = c.RunAll(context.Background(), []sim.Config{job})
	}()

	// The legacy worker loop: lease, heartbeat once, simulate, upload.
	var lr legacyLeaseResponse
	waitFor(t, func() bool {
		postJSON(t, srv.URL+"/lease", legacyLeaseRequest{Proto: ProtocolVersion, Worker: "old"}, &lr)
		return lr.Status == StatusJob
	})
	var hb legacyHeartbeatResponse
	postJSON(t, srv.URL+"/heartbeat", legacyHeartbeatRequest{Proto: ProtocolVersion, Worker: "old", LeaseID: lr.LeaseID}, &hb)
	if !hb.OK {
		t.Fatal("legacy heartbeat rejected")
	}
	res := run(t, lr.Config)
	var rr legacyResultResponse
	postJSON(t, srv.URL+"/result", legacyResultRequest{
		Proto: ProtocolVersion, Worker: "old", LeaseID: lr.LeaseID, Key: lr.Key, Result: res,
	}, &rr)
	if !rr.Accepted || rr.Duplicate {
		t.Fatalf("legacy upload: %+v", rr)
	}

	wg.Wait()
	if err := runner.FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if got, hit := c.store.Get(job.Key()); !hit || renderResult(t, got) != renderResult(t, want) {
		t.Error("legacy-uploaded result differs from local run")
	}
	// The coordinator-side lifecycle is still traced; only the worker
	// phases are (necessarily) absent.
	names := spanNames(c.Spans(), job.Key())
	if names[telemetry.SpanLease] == 0 || names[telemetry.SpanUpload] == 0 {
		t.Errorf("coordinator spans missing for legacy worker: %v", names)
	}
	if names[telemetry.SpanRun] != 0 {
		t.Errorf("legacy worker cannot have produced run spans: %v", names)
	}
}

// TestProtocolCompatNewWorkerOldCoordinator points a current RunWorker —
// flight recorder armed, metrics piggybacking — at a stub coordinator
// speaking only the pre-observability format (plain json.Decode, like the
// real one: unknown request fields are ignored). The worker must complete
// the job and exit cleanly on the legacy responses.
func TestProtocolCompatNewWorkerOldCoordinator(t *testing.T) {
	job := cfg(t, "bwaves", nil)
	want := run(t, job)

	var mu sync.Mutex
	var uploaded *legacyResultRequest
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		var req legacyLeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		resp := legacyLeaseResponse{Status: StatusDone}
		if uploaded == nil {
			resp = legacyLeaseResponse{Status: StatusJob, Key: job.Key(), Config: job, LeaseID: 7, TTLMS: 200}
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req legacyHeartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(legacyHeartbeatResponse{OK: req.LeaseID == 7})
	})
	mux.HandleFunc("/result", func(w http.ResponseWriter, r *http.Request) {
		var req legacyResultRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		uploaded = &req
		mu.Unlock()
		json.NewEncoder(w).Encode(legacyResultResponse{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := RunWorker(ctx, WorkerOptions{
		URL: srv.URL, Name: "new", Pool: runner.New(1), Flight: true,
	})
	if err != nil {
		t.Fatalf("worker against legacy coordinator: %v", err)
	}
	if stats.Completed != 1 {
		t.Fatalf("completed %d jobs, want 1", stats.Completed)
	}
	mu.Lock()
	defer mu.Unlock()
	if uploaded == nil || uploaded.Key != job.Key() {
		t.Fatal("legacy coordinator never received the upload")
	}
	if renderResult(t, uploaded.Result) != renderResult(t, want) {
		t.Error("uploaded result differs from local run")
	}
}
