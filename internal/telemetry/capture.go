package telemetry

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// FlightTraceCap is the command-ring capacity a flight capture attaches:
// far smaller than DefaultTraceCap because the record only keeps the
// tail, and the ring must be cheap enough to arm on every worker job.
const FlightTraceCap = 256

// LastLineWriter is an io.Writer retaining only the most recent complete
// line written to it (bounded). Sink writes each record as one Write
// call, so pointing a sink at a LastLineWriter keeps exactly the
// last epoch record of a run at O(1) memory — the flight recorder's
// "gauges at death" source.
type LastLineWriter struct {
	mu   sync.Mutex
	last []byte
}

// Write retains p (minus its trailing newline) as the latest line.
func (w *LastLineWriter) Write(p []byte) (int, error) {
	n := len(p)
	trimmed := bytes.TrimRight(p, "\n")
	if len(trimmed) > MaxFlightMetricsLine {
		trimmed = trimmed[:MaxFlightMetricsLine]
	}
	w.mu.Lock()
	w.last = append(w.last[:0], trimmed...)
	w.mu.Unlock()
	return n, nil
}

// Last returns a copy of the most recent line ("" if nothing was written).
func (w *LastLineWriter) Last() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.last) == 0 {
		return nil
	}
	out := make([]byte, len(w.last))
	copy(out, w.last)
	return out
}

// Capture is one job's flight-recorder arm: a bounded command-trace ring
// plus a last-epoch-line sink, wired into the job's telemetry probe by
// the worker, and drained into a FlightRecord if the job dies. It also
// parks a pprof snapshot when the coordinator's stall detector asks for
// one. A Capture belongs to one job; the trace ring is single-goroutine
// (the simulator's event loop) while the profile buffer is
// mutex-guarded (the heartbeat goroutine writes it).
type Capture struct {
	trace *CommandTrace
	last  *LastLineWriter
	sink  *Sink

	mu      sync.Mutex
	profile []byte
}

// NewCapture arms a capture with a FlightTraceCap command ring.
func NewCapture() *Capture {
	last := &LastLineWriter{}
	return &Capture{
		trace: NewCommandTrace(FlightTraceCap),
		last:  last,
		sink:  NewSink(last),
	}
}

// Reset clears the capture for the next job, keeping its allocations: the
// command ring rewinds, the retained metrics line and any parked profile
// are dropped.
func (c *Capture) Reset() {
	c.trace.Reset()
	c.last.mu.Lock()
	c.last.last = c.last.last[:0]
	c.last.mu.Unlock()
	c.mu.Lock()
	c.profile = c.profile[:0]
	c.mu.Unlock()
}

// Trace returns the bounded command ring to attach as the job's
// Probe.Trace.
func (c *Capture) Trace() *CommandTrace { return c.trace }

// Sink returns the last-line metrics sink to attach behind the job's
// Probe.Metrics.
func (c *Capture) Sink() *Sink { return c.sink }

// CaptureProfile snapshots the goroutine profile (debug=1 text form,
// bounded) into the capture; the worker calls it when a heartbeat
// response carries the coordinator's stall-profile request.
func (c *Capture) CaptureProfile() {
	var buf bytes.Buffer
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&buf, 1)
	}
	b := buf.Bytes()
	if len(b) > MaxFlightGoroutines {
		b = b[:MaxFlightGoroutines]
	}
	c.mu.Lock()
	c.profile = append(c.profile[:0], b...)
	c.mu.Unlock()
}

// Profile returns the parked pprof snapshot (nil if none was requested).
func (c *Capture) Profile() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.profile) == 0 {
		return nil
	}
	out := make([]byte, len(c.profile))
	copy(out, c.profile)
	return out
}

// BuildFlight drains the capture into a flight record for a job that died
// with err. stack is the panicking goroutine's stack if the failure was a
// panic (nil otherwise); the all-goroutines dump is taken here, at
// capture time.
func (c *Capture) BuildFlight(key, worker string, attempt int, errText string, stack []byte) *FlightRecord {
	cmds, dropped := RenderCommands(c.trace)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gbuf := make([]byte, MaxFlightGoroutines)
	gbuf = gbuf[:runtime.Stack(gbuf, true)]
	f := &FlightRecord{
		Schema:          FlightSchema,
		Key:             key,
		Worker:          worker,
		Attempt:         attempt,
		Error:           errText,
		TimeUS:          time.Now().UnixMicro(),
		Stack:           truncate(string(stack), MaxFlightStack),
		Goroutines:      truncate(string(gbuf), MaxFlightGoroutines),
		Commands:        cmds,
		CommandsDropped: dropped,
		LastMetrics:     c.last.Last(),
		Profile:         truncate(string(c.Profile()), MaxFlightGoroutines),
		NumGoroutine:    runtime.NumGoroutine(),
		HeapBytes:       mem.HeapAlloc,
	}
	return f
}
