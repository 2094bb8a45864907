package dist

import (
	"autorfm/internal/sim"
	"autorfm/internal/telemetry"
)

// The lease protocol is four JSON-over-HTTP POST endpoints served by the
// coordinator (stdlib net/http only; no third-party transport):
//
//	POST /lease      LeaseRequest     -> LeaseResponse
//	POST /heartbeat  HeartbeatRequest -> HeartbeatResponse
//	POST /result     ResultRequest    -> ResultResponse
//	GET  /status                      -> telemetry.CoordSnapshot
//	GET  /debug/vars                  -> expvar (incl. "autorfm.coord")
//
// Every request carries the worker's self-chosen name (host-pid by
// convention) for the fleet gauge and the logs; identity is advisory, not
// authenticated — the fabric is meant for trusted lab networks, like the
// simulator fleets it imitates.

// ProtocolVersion names the wire format. A coordinator rejects mismatched
// workers with 400 rather than mis-parsing them.
//
// PR 10 grew the messages observability fields (LeaseResponse.Attempt and
// .Trace, HeartbeatRequest.Metrics, HeartbeatResponse.Profile,
// ResultRequest.Spans and .Flight) without bumping the version: every new
// field is optional with omitempty, Go's JSON decoding ignores unknown
// fields, and a missing field decodes to its zero value — so old workers
// and old coordinators interoperate with new ones (pinned by the
// TestProtocolCompat* tests). Bump the version only for a change that
// alters the meaning of an existing field.
const ProtocolVersion = "autorfm-dist/v1"

// Lease statuses.
const (
	// StatusJob: the response carries a leased job to simulate.
	StatusJob = "job"
	// StatusWait: no work right now (queue empty, sweep not over) — poll
	// again after RetryMS.
	StatusWait = "wait"
	// StatusDone: the sweep is drained; the worker should exit cleanly.
	StatusDone = "done"
)

// LeaseRequest asks the coordinator for one job lease.
type LeaseRequest struct {
	Proto  string `json:"proto"`
	Worker string `json:"worker"`
}

// LeaseResponse grants a job, asks the worker to wait, or drains it.
type LeaseResponse struct {
	Status string `json:"status"` // StatusJob, StatusWait or StatusDone
	// Job fields, valid when Status == StatusJob.
	Key     string     `json:"key,omitempty"`
	Config  sim.Config `json:"config"`
	LeaseID uint64     `json:"lease_id,omitempty"`
	// TTLMS is the lease's time-to-live in milliseconds; the worker must
	// heartbeat well within it (TTLMS/3 is the convention) or the job is
	// requeued to another worker.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Stolen marks a duplicate lease on a job another worker is still
	// running (straggler mitigation). First uploaded result wins; the
	// loser's upload is acknowledged and discarded.
	Stolen bool `json:"stolen,omitempty"`
	// RetryMS, valid when Status == StatusWait, is how long to wait before
	// polling again.
	RetryMS int64 `json:"retry_ms,omitempty"`
	// Attempt numbers this job's lease grants, 1-based: attempt 2 means
	// the first lease expired (or is being stolen from). Optional;
	// pre-observability coordinators send 0.
	Attempt int `json:"attempt,omitempty"`
	// Trace asks the worker to record execution-phase spans for this job
	// and upload them with the result. Optional; workers that predate span
	// tracing ignore it, which only thins the trace.
	Trace bool `json:"trace,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Proto   string `json:"proto"`
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
	// Metrics piggybacks the worker's cumulative gauges (events simulated,
	// jobs done, goroutines, heap) on the renewal; the coordinator's fleet
	// view derives rates and jitter from successive payloads. Optional —
	// old workers send none and simply have no gauge row.
	Metrics *telemetry.WorkerMetrics `json:"metrics,omitempty"`
}

// HeartbeatResponse acknowledges a renewal. OK=false means the lease is no
// longer live (expired, completed by a thief, or the coordinator restarted
// and lost it). The worker should finish and upload anyway: results are
// addressed by config key, so the coordinator accepts them leaseless.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Profile asks the worker to capture a goroutine profile now: the
	// coordinator's stall detector flagged this lease as running past its
	// config family's rolling p99. Sent at most once per lease. Optional;
	// old workers ignore it.
	Profile bool `json:"profile,omitempty"`
}

// ResultRequest uploads one finished job. Exactly one of Result and Error
// is meaningful: a deterministic job failure (panic, timeout, rejected
// config) travels as its rendered error string so the coordinator's
// footnotes match a local run's byte-for-byte. Failures are surfaced to the
// report but never persisted to the store — they are cheap to reproduce and
// must re-run after a restart.
type ResultRequest struct {
	Proto   string     `json:"proto"`
	Worker  string     `json:"worker"`
	LeaseID uint64     `json:"lease_id"`
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
	Error   string     `json:"error,omitempty"`
	// Spans carries the worker-side execution-phase spans (queue, run,
	// profile) recorded while the job ran, when the lease asked for
	// tracing. Optional; the coordinator merges them into the job's
	// lifecycle trace.
	Spans []telemetry.Span `json:"spans,omitempty"`
	// Flight carries the worker's flight record when the job died (or a
	// stall profile was captured): the bounded crash snapshot the
	// coordinator persists content-addressed next to the result store.
	// Optional.
	Flight *telemetry.FlightRecord `json:"flight,omitempty"`
}

// ResultResponse acknowledges an upload. Duplicate=true means another
// worker's result landed first (work stealing or a requeue race); the
// upload was discarded, which is fine — results are deterministic.
type ResultResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
}
