package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"autorfm/internal/clk"
	"autorfm/internal/stats"
)

// MetricsSchema versions the JSON-lines metrics stream. Bump it only with
// a new record shape; consumers (and ValidateMetricsLine) key on it.
const MetricsSchema = "autorfm-metrics/v1"

// Probe is the per-run telemetry attachment point carried by sim.Config.
// Both surfaces are optional; a nil Probe (the default) disables telemetry
// entirely.
type Probe struct {
	// Metrics enables the per-epoch counter stream.
	Metrics *MetricsConfig
	// Trace enables the bounded DRAM command trace.
	Trace *CommandTrace
}

// MetricsConfig configures the epoch sampler of one run.
type MetricsConfig struct {
	// Sink receives the JSON-lines records. Required.
	Sink *Sink
	// Run labels every record, so multiple runs can share one sink (the
	// experiment engine uses the job's cache key).
	Run string
	// EpochNS is the epoch length in simulated nanoseconds; 0 selects one
	// tREFI window (3900ns), the paper's natural reporting interval.
	EpochNS int64
}

// Sink is a concurrency-safe JSON-lines writer: each record is marshalled
// and written as one complete line under a mutex, so records from parallel
// sweep jobs interleave without tearing. The first write error is latched
// and subsequent writes become no-ops (telemetry must never kill a run).
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	records int64
	err     error
}

// NewSink wraps w. The caller retains ownership of w (and closes it, if it
// is a file, after the runs that share the sink have completed).
func NewSink(w io.Writer) *Sink { return &Sink{w: w} }

// WriteRecord marshals v and appends it as one line. Safe for concurrent
// use.
func (s *Sink) WriteRecord(v interface{}) {
	buf, err := json.Marshal(v)
	if err != nil {
		// Record types are fixed structs; a marshal failure is a
		// programming error, but latch it rather than panic mid-run.
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(append(buf, '\n')); err != nil {
		s.err = err
		return
	}
	s.records++
}

// Records returns how many lines have been written.
func (s *Sink) Records() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Err returns the first write error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Counters is the cumulative counter snapshot the sampler differences
// between epoch boundaries. The simulator fills it from memctrl.Stats and
// the device-side bank totals; the JSON tags name the per-epoch delta
// fields of the metrics record.
type Counters struct {
	Acts            uint64 `json:"acts"`
	RowHits         uint64 `json:"row_hits"`
	Reads           uint64 `json:"reads"`
	Writes          uint64 `json:"writes"`
	REFs            uint64 `json:"refs"`
	RFMs            uint64 `json:"rfms"`
	Alerts          uint64 `json:"alerts"`
	PRACBackoffs    uint64 `json:"prac_backoffs"`
	Mitigations     uint64 `json:"mitigations"`
	VictimRefreshes uint64 `json:"victim_refreshes"`
	ABOAlerts       uint64 `json:"abo_alerts"`
}

// sub returns the element-wise difference c - prev.
func (c Counters) sub(prev Counters) Counters {
	return Counters{
		Acts:            c.Acts - prev.Acts,
		RowHits:         c.RowHits - prev.RowHits,
		Reads:           c.Reads - prev.Reads,
		Writes:          c.Writes - prev.Writes,
		REFs:            c.REFs - prev.REFs,
		RFMs:            c.RFMs - prev.RFMs,
		Alerts:          c.Alerts - prev.Alerts,
		PRACBackoffs:    c.PRACBackoffs - prev.PRACBackoffs,
		Mitigations:     c.Mitigations - prev.Mitigations,
		VictimRefreshes: c.VictimRefreshes - prev.VictimRefreshes,
		ABOAlerts:       c.ABOAlerts - prev.ABOAlerts,
	}
}

// Gauges are point-in-time values sampled at each epoch boundary (not
// differenced): controller queue depths and tracker table occupancy.
type Gauges struct {
	// QueueDepth is the total number of queued requests across all banks.
	QueueDepth int `json:"queue_depth"`
	// QueueDepthMax is the deepest single bank queue.
	QueueDepthMax int `json:"queue_depth_max"`
	// TrackerLive/TrackerBudget sum live entries and entry budgets across
	// the banks whose tracker exposes tracker.TableStats (0/0 otherwise;
	// budget 0 with live > 0 means the table is unbounded, e.g. TWiCe).
	TrackerLive   int `json:"tracker_live"`
	TrackerBudget int `json:"tracker_budget"`
	// TrackerSpill sums the trackers' spillover floors (Misra-Gries
	// decrement-all count, or dropped samples for FIFO trackers).
	TrackerSpill int64 `json:"tracker_spill"`
}

// EpochRecord is one "kind":"epoch" line of the metrics stream: the counter
// deltas over [t_start_ns, t_end_ns) plus boundary gauges. Summing a run's
// epoch deltas reproduces the end-of-run totals exactly (pinned by
// internal/sim's TestEpochRecordsSumToTotals).
type EpochRecord struct {
	Schema  string  `json:"schema"`
	Kind    string  `json:"kind"`
	Run     string  `json:"run,omitempty"`
	Epoch   int     `json:"epoch"`
	StartNS float64 `json:"t_start_ns"`
	EndNS   float64 `json:"t_end_ns"`
	Counters
	Gauges
}

// SummaryRecord is the single "kind":"summary" line closing a run's stream:
// run-level distributions that per-epoch deltas cannot carry, currently the
// bank-queue occupancy quantiles (sampled per column access).
type SummaryRecord struct {
	Schema       string  `json:"schema"`
	Kind         string  `json:"kind"`
	Run          string  `json:"run,omitempty"`
	Epochs       int     `json:"epochs"`
	EndNS        float64 `json:"t_end_ns"`
	QueueSamples uint64  `json:"queue_samples"`
	QueueP50     int     `json:"queue_p50"`
	QueueP90     int     `json:"queue_p90"`
	QueueP99     int     `json:"queue_p99"`
	QueueMax     int     `json:"queue_max"`
}

// EpochSampler turns cumulative counter snapshots into per-epoch delta
// records. It is single-run, single-goroutine state (the simulator's event
// loop); only the Sink behind it is shared.
type EpochSampler struct {
	sink  *Sink
	run   string
	epoch int
	prev  Counters
}

// NewEpochSampler builds a sampler emitting to cfg.Sink under cfg.Run.
func NewEpochSampler(cfg *MetricsConfig) *EpochSampler {
	return &EpochSampler{sink: cfg.Sink, run: cfg.Run}
}

// Sample emits the epoch record for [start, end): the delta of cum against
// the previous snapshot, plus the boundary gauges.
func (s *EpochSampler) Sample(start, end clk.Tick, cum Counters, g Gauges) {
	rec := EpochRecord{
		Schema:   MetricsSchema,
		Kind:     "epoch",
		Run:      s.run,
		Epoch:    s.epoch,
		StartNS:  start.Nanoseconds(),
		EndNS:    end.Nanoseconds(),
		Counters: cum.sub(s.prev),
		Gauges:   g,
	}
	s.prev = cum
	s.epoch++
	s.sink.WriteRecord(&rec)
}

// Flush emits the final partial epoch, if anything happened since the last
// boundary. A run that ends exactly on an epoch boundary with no residual
// activity emits nothing.
func (s *EpochSampler) Flush(start, end clk.Tick, cum Counters, g Gauges) {
	if cum == s.prev && end <= start {
		return
	}
	s.Sample(start, end, cum, g)
}

// Summary closes the run's stream with the run-level queue-occupancy
// distribution. hist may be nil (no summary is emitted).
func (s *EpochSampler) Summary(end clk.Tick, hist *stats.Histogram) {
	if hist == nil {
		return
	}
	s.sink.WriteRecord(&SummaryRecord{
		Schema:       MetricsSchema,
		Kind:         "summary",
		Run:          s.run,
		Epochs:       s.epoch,
		EndNS:        end.Nanoseconds(),
		QueueSamples: hist.Total(),
		QueueP50:     hist.Quantile(0.50),
		QueueP90:     hist.Quantile(0.90),
		QueueP99:     hist.Quantile(0.99),
		QueueMax:     hist.Max(),
	})
}

// Epochs returns how many epoch records have been emitted.
func (s *EpochSampler) Epochs() int { return s.epoch }

// ValidateMetricsLine checks one JSON-lines record of the metrics stream
// against the autorfm-metrics/v1 schema: known schema string, known kind,
// required fields present and sane. It is the validator CI's observability
// smoke job runs over generated files — deliberately standard-library only.
func ValidateMetricsLine(line []byte) error {
	var m map[string]interface{}
	if err := json.Unmarshal(line, &m); err != nil {
		return fmt.Errorf("telemetry: invalid JSON: %w", err)
	}
	if got, _ := m["schema"].(string); got != MetricsSchema {
		return fmt.Errorf("telemetry: schema %q, want %q", got, MetricsSchema)
	}
	kind, _ := m["kind"].(string)
	var required []string
	switch kind {
	case "epoch":
		required = []string{"epoch", "t_start_ns", "t_end_ns",
			"acts", "row_hits", "reads", "writes", "refs", "rfms", "alerts",
			"prac_backoffs", "mitigations", "victim_refreshes", "abo_alerts",
			"queue_depth", "queue_depth_max", "tracker_live", "tracker_budget",
			"tracker_spill"}
	case "summary":
		required = []string{"epochs", "t_end_ns", "queue_samples",
			"queue_p50", "queue_p90", "queue_p99", "queue_max"}
	default:
		return fmt.Errorf("telemetry: unknown record kind %q", kind)
	}
	for _, f := range required {
		v, ok := m[f]
		if !ok {
			return fmt.Errorf("telemetry: %s record missing field %q", kind, f)
		}
		n, ok := v.(float64)
		if !ok {
			return fmt.Errorf("telemetry: field %q is %T, want number", f, v)
		}
		if n < 0 {
			return fmt.Errorf("telemetry: field %q is negative (%v)", f, n)
		}
	}
	if kind == "epoch" && m["t_end_ns"].(float64) < m["t_start_ns"].(float64) {
		return fmt.Errorf("telemetry: epoch ends (%v) before it starts (%v)",
			m["t_end_ns"], m["t_start_ns"])
	}
	return nil
}
