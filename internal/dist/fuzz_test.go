package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
)

// FuzzCoordinatorRequests asserts the coordinator's request-body contract:
// any bytes POSTed to /lease, /heartbeat or /result of a coordinator
// holding a small leased sweep are answered 200 or 4xx, never with a
// panic, and never leave a store record whose key is not a job of the
// sweep or whose result is not its key's. Tracing and the fleet view are
// on, so uploaded spans and heartbeat metrics reach their aggregators,
// which /status and /metrics then render.
//
// CI runs this for a short wall-clock smoke (-fuzz=FuzzCoordinatorRequests
// -fuzztime=10s); without -fuzz the seed corpus runs as a normal test.
func FuzzCoordinatorRequests(f *testing.F) {
	jobs := sweepConfigs(f)
	other := cfg(f, "lbm", nil) // well-formed, but no job of the sweep
	seeds := []interface{}{
		LeaseRequest{Proto: ProtocolVersion, Worker: "w1"},
		HeartbeatRequest{Proto: ProtocolVersion, Worker: "w0", LeaseID: 1,
			Metrics: &telemetry.WorkerMetrics{Events: 1 << 40, JobsDone: 3, Goroutines: 9}},
		ResultRequest{Proto: ProtocolVersion, Worker: "w0", LeaseID: 1, Key: jobs[0].Key(),
			Result: sim.Result{Config: jobs[0]},
			Spans:  []telemetry.Span{{Name: telemetry.SpanRun, StartUS: 5, EndUS: 2}}},
		ResultRequest{Proto: ProtocolVersion, Worker: "w2", Key: jobs[1].Key(), Error: "sim: boom"},
		ResultRequest{Proto: ProtocolVersion, Worker: "w2", Key: other.Key(), Result: sim.Result{Config: other}},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"proto":"autorfm-dist/v0","worker":"w1"}`))
	f.Add([]byte(`{"proto":"autorfm-dist/v1","lease_id":-1}`))
	f.Add([]byte("{"))

	want := make(map[string]bool)
	for _, j := range jobs {
		want[j.Key()] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewCoordinator(runner.NewMemStore())
		c.Trace = true
		c.Fleet = telemetry.NewFleet()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			c.RunAll(ctx, jobs)
			close(done)
		}()
		defer func() {
			cancel()
			<-done
		}()
		// Lease 1 goes to w0 once RunAll has submitted the sweep.
		for c.Lease("w0").Status != StatusJob {
			runtime.Gosched()
		}

		h := c.Handler()
		serve := func(method, path string, body []byte) int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec.Code
		}
		for _, path := range []string{"/lease", "/heartbeat", "/result"} {
			if code := serve(http.MethodPost, path, body); code != http.StatusOK && (code < 400 || code > 499) {
				t.Fatalf("POST %s answered %d", path, code)
			}
		}
		for _, path := range []string{"/status", "/metrics"} {
			if code := serve(http.MethodGet, path, nil); code != http.StatusOK {
				t.Fatalf("GET %s answered %d after the POSTs", path, code)
			}
		}
		for _, k := range c.Store().Keys() {
			res, _ := c.Store().Get(k)
			if !want[k] || res.Config.Key() != k {
				t.Fatalf("store holds a record under %q, which is not a job of the sweep", k)
			}
		}
	})
}
