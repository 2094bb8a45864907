package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SpanSchema versions the JSON-lines span log. Bump it only with a new
// record shape; consumers (and ValidateSpanLine) key on it.
const SpanSchema = "autorfm-spans/v1"

// Span names. Coordinator-side lifecycle events use the first group (their
// Worker field names the worker involved, where one is); worker-side
// execution phases use the second and ride the result upload.
const (
	// SpanSubmit marks a job entering the coordinator's queue (instant).
	SpanSubmit = "submit"
	// SpanStoreHit marks a job answered from the result store without
	// touching a worker (instant).
	SpanStoreHit = "store-hit"
	// SpanLease covers one lease's lifetime: granted at Start, retired at
	// End (result landed, lease expired, or a rival's result won). Attempt
	// numbers the grants of this job, 1-based.
	SpanLease = "lease"
	// SpanHeartbeat marks one lease renewal (instant; only the first few
	// per lease are recorded — the rest are counted in the lease Detail).
	SpanHeartbeat = "heartbeat"
	// SpanRequeue marks a job put back on the queue after its last live
	// lease expired — the crashed-worker path (instant).
	SpanRequeue = "requeue"
	// SpanSteal marks a duplicate lease granted on a straggling job
	// (instant; the duplicate lease itself is a SpanLease).
	SpanSteal = "steal"
	// SpanUpload marks an accepted result upload (instant).
	SpanUpload = "upload"
	// SpanDuplicate marks an upload that lost a first-result-wins race
	// (instant).
	SpanDuplicate = "duplicate"
	// SpanStall marks the stall detector flagging a lease running past its
	// config family's rolling p99 (instant).
	SpanStall = "stall"

	// SpanQueue is the worker-side wait for a pool slot.
	SpanQueue = "queue"
	// SpanRun is the worker-side machine execution of the job.
	SpanRun = "run"
	// SpanProfile marks the worker capturing a pprof snapshot on the
	// coordinator's stall request (instant).
	SpanProfile = "profile"
)

// Span is one record of a job's lifecycle trace. Times are wall-clock
// microseconds (Unix epoch) from whichever machine recorded the span:
// coordinator clocks time coordinator-side events, worker clocks time
// execution phases, so merged traces of a multi-host fleet carry the
// hosts' clock skew (harmless for the usual "where did the minutes go"
// questions; see docs/OBSERVABILITY.md). An End at or before Start marks
// an instant event.
type Span struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`              // the job's canonical config key
	Name    string `json:"name"`             // one of the Span* constants
	Worker  string `json:"worker,omitempty"` // "" = the coordinator itself
	Attempt int    `json:"attempt,omitempty"`
	LeaseID uint64 `json:"lease_id,omitempty"`
	StartUS int64  `json:"t_start_us"`
	EndUS   int64  `json:"t_end_us,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// DefaultSpanCap is the per-buffer span capacity NewSpanBuffer(0) selects:
// generous for one job's lifecycle (a handful of phases plus bounded
// heartbeat instants), small enough that a fleet of buffers is free.
const DefaultSpanCap = 64

// SpanBuffer is a fixed-capacity span accumulator. Recording is
// allocation-free: the backing array is allocated once, spans past the
// capacity are dropped and counted, and a nil buffer ignores every call —
// so the probes-off path costs one nil check (guarded by
// TestSpanRecordDisabledZeroAllocs). A SpanBuffer belongs to one
// goroutine at a time; callers that share one across goroutines (the
// worker's heartbeat loop) must synchronize.
type SpanBuffer struct {
	spans   []Span
	dropped int
}

// NewSpanBuffer returns a buffer holding up to capacity spans
// (capacity <= 0 selects DefaultSpanCap).
func NewSpanBuffer(capacity int) *SpanBuffer {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanBuffer{spans: make([]Span, 0, capacity)}
}

// Record appends one span, dropping (and counting) it when the buffer is
// full. Safe on a nil buffer: recording with probes off is a no-op.
func (b *SpanBuffer) Record(s Span) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// Reset empties the buffer for the next job, keeping its backing array.
func (b *SpanBuffer) Reset() {
	if b == nil {
		return
	}
	b.spans = b.spans[:0]
	b.dropped = 0
}

// Spans returns the recorded spans (the live backing slice — marshal or
// copy before Reset). Nil-safe.
func (b *SpanBuffer) Spans() []Span {
	if b == nil {
		return nil
	}
	return b.spans
}

// Dropped returns how many spans did not fit. Nil-safe.
func (b *SpanBuffer) Dropped() int {
	if b == nil {
		return 0
	}
	return b.dropped
}

// SortSpans orders spans by start time, breaking ties by key then name so
// a merged log is deterministic for a fixed set of spans.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Name < b.Name
	})
}

// WriteSpanLog renders spans as the autorfm-spans/v1 JSON-lines log, one
// record per line, filling the Schema field.
func WriteSpanLog(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	sink := NewSink(bw)
	for _, s := range spans {
		s.Schema = SpanSchema
		sink.WriteRecord(&s)
	}
	if err := sink.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// knownSpanNames is the validation set for ValidateSpanLine.
var knownSpanNames = map[string]bool{
	SpanSubmit: true, SpanStoreHit: true, SpanLease: true,
	SpanHeartbeat: true, SpanRequeue: true, SpanSteal: true,
	SpanUpload: true, SpanDuplicate: true, SpanStall: true,
	SpanQueue: true, SpanRun: true, SpanProfile: true,
}

// ValidateSpanLine checks one line of a span log against the
// autorfm-spans/v1 schema: known schema string, known span name, a job
// key, and sane timestamps. CI's dist drill runs it over generated logs.
func ValidateSpanLine(line []byte) error {
	var s Span
	if err := json.Unmarshal(line, &s); err != nil {
		return fmt.Errorf("telemetry: invalid span JSON: %w", err)
	}
	if s.Schema != SpanSchema {
		return fmt.Errorf("telemetry: span schema %q, want %q", s.Schema, SpanSchema)
	}
	if !knownSpanNames[s.Name] {
		return fmt.Errorf("telemetry: unknown span name %q", s.Name)
	}
	if s.Key == "" {
		return fmt.Errorf("telemetry: %s span has no job key", s.Name)
	}
	if s.StartUS < 0 {
		return fmt.Errorf("telemetry: %s span has negative start %d", s.Name, s.StartUS)
	}
	if s.EndUS != 0 && s.EndUS < s.StartUS {
		return fmt.Errorf("telemetry: %s span ends (%d) before it starts (%d)", s.Name, s.EndUS, s.StartUS)
	}
	return nil
}

type spanArgs struct {
	Key     string `json:"key"`
	Attempt int    `json:"attempt,omitempty"`
	LeaseID uint64 `json:"lease_id,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// WriteChromeSpans renders a merged span set as Chrome trace-event JSON
// with one track per worker: tid 0 is the coordinator, worker tracks
// follow in sorted-name order. Timestamps are rebased to the earliest
// span so the trace opens at t=0 in Perfetto or chrome://tracing.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	workers := make(map[string]int)
	var names []string
	for i := range spans {
		if wk := spans[i].Worker; wk != "" {
			if _, ok := workers[wk]; !ok {
				workers[wk] = 0
				names = append(names, wk)
			}
		}
	}
	sort.Strings(names)
	for i, n := range names {
		workers[n] = i + 1
	}
	var base int64
	for i := range spans {
		if i == 0 || spans[i].StartUS < base {
			base = spans[i].StartUS
		}
	}

	tw := newTraceWriter(w, "ms")
	tw.track(0, "coordinator")
	for _, n := range names {
		tw.track(workers[n], "worker "+n)
	}
	for i := range spans {
		s := &spans[i]
		// Instant spans (End at or before Start) get a non-positive duration
		// and render as "i" markers; Worker "" maps to tid 0, the coordinator.
		tw.slice(s.Name, "job", float64(s.StartUS-base), float64(s.EndUS-s.StartUS), workers[s.Worker],
			spanArgs{Key: s.Key, Attempt: s.Attempt, LeaseID: s.LeaseID, Detail: s.Detail})
	}
	return tw.close()
}
