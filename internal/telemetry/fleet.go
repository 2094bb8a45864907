package telemetry

import (
	"sort"
	"sync"
	"time"
)

// WorkerMetrics is the piggyback payload a worker attaches to heartbeat
// requests: cumulative worker-local progress the coordinator differences
// into fleet rates. All fields are optional on the wire (old workers send
// none) and cumulative (so lost heartbeats never lose counts).
type WorkerMetrics struct {
	// Events is the worker's cumulative simulated-event count.
	Events int64 `json:"events,omitempty"`
	// JobsDone is the worker's cumulative completed-job count.
	JobsDone int `json:"jobs_done,omitempty"`
	// Goroutines and HeapBytes are point-in-time runtime stats.
	Goroutines int    `json:"goroutines,omitempty"`
	HeapBytes  uint64 `json:"heap_bytes,omitempty"`
}

// familyLatencyCap bounds the rolling per-family latency window the
// percentiles are computed over.
const familyLatencyCap = 128

// MinStallSamples is how many completed jobs a family needs before its
// rolling p99 is trusted by the stall detector.
const MinStallSamples = 8

// WorkerView is one worker's row of the fleet snapshot.
type WorkerView struct {
	Worker string `json:"worker"`
	// LastSeenMS is how long ago the last heartbeat (or lease/upload)
	// arrived.
	LastSeenMS int64 `json:"last_seen_ms"`
	// HeartbeatJitterMS is a smoothed mean absolute deviation between
	// successive heartbeat gaps — a partitioning or overloaded worker
	// shows here before its lease expires.
	HeartbeatJitterMS float64 `json:"heartbeat_jitter_ms"`
	// LeaseAgeMS is the age of the worker's oldest live lease (0 when
	// idle).
	LeaseAgeMS int64 `json:"lease_age_ms"`
	// EventsPerSec is the smoothed simulated-event rate from heartbeat
	// deltas.
	EventsPerSec float64 `json:"events_per_sec"`
	Events       int64   `json:"events"`
	JobsDone     int     `json:"jobs_done"`
	Goroutines   int     `json:"goroutines,omitempty"`
	HeapBytes    uint64  `json:"heap_bytes,omitempty"`
}

// FamilyView is one config family's row of the fleet snapshot. A family
// is a config label minus its workload-independent parts (the dist layer
// derives it from the experiment label), so latency statistics pool
// comparable jobs.
type FamilyView struct {
	Family string `json:"family"`
	Jobs   int    `json:"jobs"`
	P50MS  int64  `json:"latency_p50_ms"`
	P99MS  int64  `json:"latency_p99_ms"`
	Stalls int64  `json:"stalls"`
}

// FleetSnapshot is the point-in-time fleet view rendered under the
// "autorfm.fleet" expvar and the Prometheus /metrics endpoint. Fleet fills
// Workers and Families; Requeues and Steals are the coordinator's own
// counters, which it copies in (internal/dist's Coordinator.FleetSnapshot).
type FleetSnapshot struct {
	Workers  []WorkerView `json:"workers"`
	Families []FamilyView `json:"families"`
	Requeues int64        `json:"requeues"`
	Steals   int64        `json:"steals"`
}

type workerState struct {
	lastSeen   time.Time
	prevGapMS  float64
	jitterMS   float64 // EWMA of |gap_i - gap_{i-1}|
	hasGap     bool
	leaseAgeMS int64
	rate       float64 // EWMA events/sec
	metrics    WorkerMetrics
}

type familyState struct {
	lat    [familyLatencyCap]float64 // rolling window, ms
	n      int                       // filled entries (<= cap)
	next   int                       // ring cursor
	jobs   int
	stalls int64
}

func (f *familyState) observe(ms float64) {
	f.lat[f.next] = ms
	f.next = (f.next + 1) % familyLatencyCap
	if f.n < familyLatencyCap {
		f.n++
	}
	f.jobs++
}

// quantile computes the q-quantile of the rolling window (nearest-rank).
func (f *familyState) quantile(q float64) float64 {
	if f.n == 0 {
		return 0
	}
	tmp := make([]float64, f.n)
	copy(tmp, f.lat[:f.n])
	sort.Float64s(tmp)
	i := int(q * float64(f.n))
	if i >= f.n {
		i = f.n - 1
	}
	return tmp[i]
}

// Fleet aggregates per-worker and per-config-family gauges from heartbeat
// piggyback payloads and coordinator lifecycle events. The coordinator
// (internal/dist) feeds it; the expvar and Prometheus surfaces read it.
// Safe for concurrent use.
type Fleet struct {
	mu       sync.Mutex
	now      func() time.Time
	workers  map[string]*workerState
	families map[string]*familyState
}

// NewFleet returns an empty aggregator.
func NewFleet() *Fleet {
	return &Fleet{
		now:      time.Now,
		workers:  map[string]*workerState{},
		families: map[string]*familyState{},
	}
}

// SetClock installs a test clock.
func (f *Fleet) SetClock(now func() time.Time) { f.now = now }

// Heartbeat records one heartbeat from worker: presence, gap jitter, the
// age of its oldest live lease, and (when the worker is new enough to
// send one) the piggyback metrics payload.
func (f *Fleet) Heartbeat(worker string, leaseAge time.Duration, m *WorkerMetrics) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	w := f.workers[worker]
	if w == nil {
		w = &workerState{}
		f.workers[worker] = w
	}
	if !w.lastSeen.IsZero() {
		gapMS := float64(now.Sub(w.lastSeen)) / float64(time.Millisecond)
		if w.hasGap {
			dev := gapMS - w.prevGapMS
			if dev < 0 {
				dev = -dev
			}
			const alpha = 0.3
			w.jitterMS = (1-alpha)*w.jitterMS + alpha*dev
		}
		if m != nil && gapMS > 0 {
			inst := float64(m.Events-w.metrics.Events) / (gapMS / 1000)
			if inst >= 0 {
				const alpha = 0.3
				if w.rate == 0 {
					w.rate = inst
				} else {
					w.rate = (1-alpha)*w.rate + alpha*inst
				}
			}
		}
		w.prevGapMS = gapMS
		w.hasGap = true
	}
	w.lastSeen = now
	w.leaseAgeMS = leaseAge.Milliseconds()
	if m != nil {
		w.metrics = *m
	}
}

// Seen marks worker as alive without a heartbeat payload (lease grants
// and uploads also prove liveness).
func (f *Fleet) Seen(worker string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.workers[worker]
	if w == nil {
		w = &workerState{}
		f.workers[worker] = w
	}
	w.lastSeen = f.now()
}

// JobDone records a completed job's end-to-end latency under its config
// family.
func (f *Fleet) JobDone(family string, latency time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.families[family]
	if fs == nil {
		fs = &familyState{}
		f.families[family] = fs
	}
	fs.observe(float64(latency) / float64(time.Millisecond))
}

// StallCheck asks whether a lease of family running for age is a stall:
// past the family's rolling p99, with at least MinStallSamples completed
// jobs backing the estimate. When it is, the family's stall counter is
// bumped and true is returned — the caller fires the profile capture.
func (f *Fleet) StallCheck(family string, age time.Duration) bool {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fs := f.families[family]
	if fs == nil || fs.n < MinStallSamples {
		return false
	}
	p99 := fs.quantile(0.99)
	if p99 <= 0 || float64(age)/float64(time.Millisecond) <= p99 {
		return false
	}
	fs.stalls++
	return true
}

// Snapshot renders the current fleet view, workers and families sorted by
// name for deterministic output.
func (f *Fleet) Snapshot() FleetSnapshot {
	if f == nil {
		return FleetSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	var snap FleetSnapshot
	for name, w := range f.workers {
		snap.Workers = append(snap.Workers, WorkerView{
			Worker:            name,
			LastSeenMS:        now.Sub(w.lastSeen).Milliseconds(),
			HeartbeatJitterMS: w.jitterMS,
			LeaseAgeMS:        w.leaseAgeMS,
			EventsPerSec:      w.rate,
			Events:            w.metrics.Events,
			JobsDone:          w.metrics.JobsDone,
			Goroutines:        w.metrics.Goroutines,
			HeapBytes:         w.metrics.HeapBytes,
		})
	}
	sort.Slice(snap.Workers, func(i, j int) bool {
		return snap.Workers[i].Worker < snap.Workers[j].Worker
	})
	for name, fs := range f.families {
		snap.Families = append(snap.Families, FamilyView{
			Family: name,
			Jobs:   fs.jobs,
			P50MS:  int64(fs.quantile(0.50)),
			P99MS:  int64(fs.quantile(0.99)),
			Stalls: fs.stalls,
		})
	}
	sort.Slice(snap.Families, func(i, j int) bool {
		return snap.Families[i].Family < snap.Families[j].Family
	})
	return snap
}
