package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"autorfm/internal/runner"
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
)

// ErrCoordinatorLost reports that the coordinator stayed unreachable
// through the worker's whole retry budget. It is the graceful-degradation
// signal: the worker has finished and flushed its in-flight work (the
// pool's store, if set, already holds every completed result) and exited
// cleanly rather than spinning forever against a dead endpoint.
var ErrCoordinatorLost = errors.New("dist: coordinator unreachable")

// WorkerOptions configures one RunWorker loop.
type WorkerOptions struct {
	// URL is the coordinator's base URL, e.g. "http://10.0.0.7:9190".
	URL string
	// Name identifies this worker in coordinator gauges and logs
	// (host-pid by convention). Identity is advisory, not authenticated.
	Name string
	// Pool executes the leased jobs locally. Its result cache makes
	// re-leased duplicates free, and its Store (if set) is the worker's
	// durable spill: every simulated result is on local disk before the
	// upload is attempted, so losing the coordinator loses nothing.
	Pool *runner.Pool
	// Client issues the HTTP requests. Nil selects a client with a 15s
	// per-request timeout; set your own to change it.
	Client *http.Client
	// MaxRetries bounds consecutive failed attempts per request (default
	// 8). With the default backoff that is ~25s of patience — enough to
	// ride out a coordinator restart, bounded enough to not hang a fleet.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// retries (defaults 100ms and 5s). Every delay gets ±50% jitter so a
	// restarted coordinator is not met by synchronized thundering herds.
	BaseBackoff, MaxBackoff time.Duration
	// Log, when non-nil, receives one line per notable event (lease,
	// completion, retry, degradation).
	Log io.Writer
	// Flight arms the failure flight recorder: every leased job runs with
	// a bounded command-trace ring and a last-metrics-line sink attached
	// (via Pool.Instrument), and a job that dies ships a FlightRecord with its
	// upload. Stall profiles requested by the coordinator ship the same
	// way. Off by default: the probes are observational-only (results stay
	// byte-identical) but not free.
	Flight bool
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	Completed int // jobs simulated and uploaded (including failed jobs reported)
	Stolen    int // of those, duplicate leases taken from stragglers
	Retries   int // request attempts that failed and were retried
}

// RunWorker leases jobs from the coordinator until the sweep drains, the
// context fires, or the coordinator is lost. Each leased job is simulated
// on opt.Pool while a background heartbeat keeps the lease alive, then the
// result — or its deterministic error, rendered — is uploaded.
//
// Error contract: nil means the sweep drained and the worker was told to
// exit; ctx.Err() means the caller cancelled; ErrCoordinatorLost means the
// retry budget ran out — with every completed result already flushed to the
// pool's store, so nothing is lost.
func RunWorker(ctx context.Context, opt WorkerOptions) (WorkerStats, error) {
	w := &worker{opt: opt}
	if w.opt.Client == nil {
		w.opt.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if w.opt.MaxRetries == 0 {
		w.opt.MaxRetries = 8
	}
	if w.opt.BaseBackoff == 0 {
		w.opt.BaseBackoff = 100 * time.Millisecond
	}
	if w.opt.MaxBackoff == 0 {
		w.opt.MaxBackoff = 5 * time.Second
	}
	return w.run(ctx)
}

type worker struct {
	opt   WorkerOptions
	stats WorkerStats

	// capture is the per-job flight-recorder arm, reset between jobs. It
	// always exists (a stall profile can be requested even with Flight
	// off); its trace/metrics probes are attached only when opt.Flight.
	capture *telemetry.Capture

	// spans buffers one job's execution-phase spans allocation-free,
	// reused across jobs. spanMu orders the pool's phase callbacks, the
	// heartbeat goroutine's profile instants, and the upload read; cur
	// scopes recording to the currently leased job.
	spanMu sync.Mutex
	spans  *telemetry.SpanBuffer
	cur    struct {
		key     string
		attempt int
		leaseID uint64
		trace   bool
	}
}

// recordPhase is installed as Pool.OnJobPhase: it converts the runner's
// queue/run phase reports into worker-side spans when the current lease
// asked for tracing. Phase names match the span names by construction
// (runner.PhaseQueue == telemetry.SpanQueue etc.).
func (w *worker) recordPhase(key, phase string, start, end time.Time) {
	w.spanMu.Lock()
	defer w.spanMu.Unlock()
	if !w.cur.trace || key != w.cur.key {
		return
	}
	w.spans.Record(telemetry.Span{
		Key: key, Name: phase, Worker: w.opt.Name,
		Attempt: w.cur.attempt, LeaseID: w.cur.leaseID,
		StartUS: start.UnixMicro(), EndUS: end.UnixMicro(),
	})
}

// recordInstant appends a point event for the current job when tracing.
func (w *worker) recordInstant(name string) {
	w.spanMu.Lock()
	defer w.spanMu.Unlock()
	if !w.cur.trace {
		return
	}
	w.spans.Record(telemetry.Span{
		Key: w.cur.key, Name: name, Worker: w.opt.Name,
		Attempt: w.cur.attempt, LeaseID: w.cur.leaseID,
		StartUS: time.Now().UnixMicro(),
	})
}

func (w *worker) logf(format string, args ...interface{}) {
	if w.opt.Log != nil {
		fmt.Fprintf(w.opt.Log, "worker %s: %s\n", w.opt.Name, fmt.Sprintf(format, args...))
	}
}

func (w *worker) run(ctx context.Context) (WorkerStats, error) {
	w.capture = telemetry.NewCapture()
	w.spans = telemetry.NewSpanBuffer(0)
	w.opt.Pool.OnJobPhase = w.recordPhase
	if w.opt.Flight {
		// Arm the flight recorder on every simulated job: a bounded command
		// ring plus a last-epoch-line sink, both strictly observational
		// (results stay byte-identical; TestTelemetryDoesNotChangeResult).
		w.opt.Pool.Instrument = func(cfg *sim.Config, key string) {
			cfg.Telemetry = &telemetry.Probe{
				Metrics: &telemetry.MetricsConfig{Sink: w.capture.Sink(), Run: key},
				Trace:   w.capture.Trace(),
			}
		}
	}
	for {
		var lease LeaseResponse
		err := w.post(ctx, "/lease", LeaseRequest{Proto: ProtocolVersion, Worker: w.opt.Name}, &lease)
		if err != nil {
			return w.stats, err
		}
		switch lease.Status {
		case StatusDone:
			w.logf("sweep drained after %d jobs; exiting", w.stats.Completed)
			return w.stats, nil
		case StatusWait:
			wait := time.Duration(lease.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = 300 * time.Millisecond
			}
			if !sleepCtx(ctx, jitter(wait)) {
				return w.stats, ctx.Err()
			}
		case StatusJob:
			if err := w.serve(ctx, lease); err != nil {
				return w.stats, err
			}
		default:
			return w.stats, fmt.Errorf("dist: coordinator sent unknown lease status %q", lease.Status)
		}
	}
}

// serve simulates one leased job and uploads its outcome.
func (w *worker) serve(ctx context.Context, lease LeaseResponse) error {
	if lease.Stolen {
		w.logf("stole straggler %s", shortKey(lease.Key))
		w.stats.Stolen++
	} else {
		w.logf("leased %s", shortKey(lease.Key))
	}

	// Scope span recording and the flight capture to this job.
	w.spanMu.Lock()
	w.cur.key, w.cur.attempt, w.cur.leaseID, w.cur.trace =
		lease.Key, lease.Attempt, lease.LeaseID, lease.Trace
	w.spans.Reset()
	w.spanMu.Unlock()
	w.capture.Reset()

	// Heartbeat in the background for as long as the simulation runs.
	// Failures are logged, never fatal: a lost lease only means another
	// worker may duplicate this job, and first-result-wins absorbs that.
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := time.Duration(lease.TTLMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				// Piggyback cumulative worker gauges on the renewal; old
				// coordinators ignore the extra field.
				var mem runtime.MemStats
				runtime.ReadMemStats(&mem)
				var resp HeartbeatResponse
				err := w.post(hbCtx, "/heartbeat", HeartbeatRequest{
					Proto: ProtocolVersion, Worker: w.opt.Name, LeaseID: lease.LeaseID,
					Metrics: &telemetry.WorkerMetrics{
						Events:     w.opt.Pool.SimulatedEvents(),
						JobsDone:   w.stats.Completed,
						Goroutines: runtime.NumGoroutine(),
						HeapBytes:  mem.HeapAlloc,
					},
				}, &resp)
				if err != nil && hbCtx.Err() == nil {
					w.logf("heartbeat for %s failed: %v (continuing)", shortKey(lease.Key), err)
					continue
				}
				if err == nil && !resp.OK {
					w.logf("lease on %s no longer live (continuing; upload is leaseless)", shortKey(lease.Key))
				}
				if err == nil && resp.Profile {
					// The coordinator's stall detector flagged this job:
					// park a goroutine profile; it ships with the upload.
					w.capture.CaptureProfile()
					w.recordInstant(telemetry.SpanProfile)
					w.logf("captured stall profile for %s at coordinator request", shortKey(lease.Key))
				}
			}
		}
	}()

	res, simErr := w.opt.Pool.Run(ctx, lease.Config)
	stopHB()
	hbWG.Wait()
	if ctx.Err() != nil {
		// Cancelled mid-job: the partial run is discarded (and was evicted
		// from the pool cache); the coordinator's lease will expire and
		// requeue the job elsewhere.
		return ctx.Err()
	}

	req := ResultRequest{
		Proto: ProtocolVersion, Worker: w.opt.Name, LeaseID: lease.LeaseID, Key: lease.Key,
	}
	flightErr, flightStack := "", []byte(nil)
	if simErr != nil {
		// Deterministic job failure (panic, timeout, rejected config):
		// ship the rendered cause so coordinator footnotes match local runs.
		req.Error = simErr.Error()
		if w.opt.Flight {
			flightErr = simErr.Error()
			var pe *runner.PanicError
			if errors.As(simErr, &pe) {
				flightStack = pe.Stack
			}
		}
	} else {
		req.Result = res
	}
	if flightErr == "" && w.capture.Profile() != nil {
		// A stall profile was captured: ship it as a flight record so the
		// evidence outlives the worker, even when the job then finished.
		flightErr = req.Error
		if flightErr == "" {
			flightErr = "stall: goroutine profile captured at coordinator request"
		}
	}
	if flightErr != "" {
		req.Flight = w.capture.BuildFlight(lease.Key, w.opt.Name, lease.Attempt, flightErr, flightStack)
	}
	if lease.Trace {
		w.spanMu.Lock()
		req.Spans = append([]telemetry.Span(nil), w.spans.Spans()...)
		w.spanMu.Unlock()
	}
	var resp ResultResponse
	if err := w.post(ctx, "/result", req, &resp); err != nil {
		// The job itself is safe: simulated, memoized, and (when the pool
		// has a store) flushed to local disk before this upload was ever
		// attempted.
		w.logf("upload of %s failed; result is flushed locally: %v", shortKey(lease.Key), err)
		return err
	}
	w.stats.Completed++
	if resp.Duplicate {
		w.logf("finished %s (another worker's result won)", shortKey(lease.Key))
	} else {
		w.logf("finished %s (%d total)", shortKey(lease.Key), w.stats.Completed)
	}
	return nil
}

// post sends one JSON request with bounded retries, exponential backoff and
// jitter. Network errors and 5xx responses are retried; 4xx responses are
// protocol errors and fail immediately. When the budget runs out the error
// wraps ErrCoordinatorLost.
func (w *worker) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("dist: encoding %s request: %w", path, err)
	}
	var last error
	for attempt := 0; attempt < w.opt.MaxRetries; attempt++ {
		if attempt > 0 {
			w.stats.Retries++
			if !sleepCtx(ctx, w.backoff(attempt)) {
				return ctx.Err()
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			strings.TrimRight(w.opt.URL, "/")+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("dist: building %s request: %w", path, err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := w.opt.Client.Do(req)
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode >= 500 {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			last = fmt.Errorf("coordinator returned %s", resp.Status)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("dist: %s rejected: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			last = fmt.Errorf("decoding %s response: %w", path, err)
			continue
		}
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %s failed %d times, last error: %v",
		ErrCoordinatorLost, path, w.opt.MaxRetries, last)
}

// backoff returns the pre-jitter delay before retry attempt n (n >= 1).
func (w *worker) backoff(n int) time.Duration {
	d := w.opt.BaseBackoff << (n - 1)
	if d > w.opt.MaxBackoff || d <= 0 {
		d = w.opt.MaxBackoff
	}
	return jitter(d)
}

// jitter spreads d by ±50% so fleets of workers desynchronize. Worker-side
// randomness never touches simulation results, so math/rand's global source
// is fine here.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps for d unless ctx fires first, reporting whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// shortKey compresses a canonical config key for log lines: the full key is
// long and mostly defaults; the workload name plus a few selectors is
// enough to follow a sweep.
func shortKey(key string) string {
	if i := strings.Index(key, " Suite:"); i > 0 {
		name := strings.TrimPrefix(key[:i], "w={Name:")
		if j := strings.Index(key, "|mode="); j > 0 {
			rest := key[j:]
			if k := strings.Index(rest, "|seed="); k > 0 {
				rest = rest[:k]
			}
			return name + rest
		}
		return name
	}
	if len(key) > 48 {
		return key[:48] + "…"
	}
	return key
}
