// Package telemetry is the simulator's observability layer: everything the
// end-of-run aggregates (memctrl.Stats, dram.BankStats) cannot show because
// the paper's dynamics are temporal — ACT-per-tREFI calibration drift, RFM
// bursts after an AutoRFM threshold switch, PRAC alert back-off windows —
// and, for the distributed sweep fabric, a job's whole lifecycle as it
// travels between machines.
//
// Its surfaces are independent and individually optional. For one process:
//
//   - An epoch sampler (EpochSampler) that snapshots cumulative counters at
//     a fixed simulated-time cadence (one tREFI window by default) and
//     streams the per-epoch deltas as versioned JSON-lines
//     ("autorfm-metrics/v1") through a concurrency-safe Sink, so parallel
//     sweep jobs can share one metrics file.
//   - A bounded DRAM command trace (CommandTrace, trace.go): a fixed ring
//     of ACT/PRE/RD/WR/REF/RFM/ALERT records exportable as Chrome
//     trace-event JSON, one track per bank, loadable in Perfetto.
//   - Live sweep introspection (SweepStatus, http.go): an expvar-published
//     progress snapshot ("autorfm.sweep") mirrored as Prometheus text.
//
// For the fleet (internal/dist threads these through the lease protocol):
//
//   - Span traces (span.go): every job carries a trace of lifecycle events
//     — submit, lease (worker, attempt), heartbeats, execution phases,
//     upload, steal, first-result-wins dedup, lease-expiry requeue — as
//     JSON-lines records ("autorfm-spans/v1") and as a merged Chrome trace
//     with one track per worker, rendered by the same trace-event writer
//     as the command trace. Workers buffer spans allocation-free in a
//     fixed-capacity SpanBuffer and ship them with the result upload.
//   - The failure flight recorder (flight.go, capture.go): when a job dies
//     — panic, timeout, ERR cell — the worker dumps a bounded forensic
//     snapshot (the tail of the command-trace ring, the last epoch record,
//     goroutine stacks, runtime stats) as a FlightRecord
//     ("autorfm-flight/v1"), persisted content-addressed next to the
//     result store, so the ERR footnote in a report links to its capture.
//   - Fleet metrics (fleet.go, prom.go): per-worker and per-config-family
//     gauges aggregated from heartbeat piggyback payloads, published as
//     the expvar "autorfm.fleet" and as Prometheus text on /metrics, plus
//     a stall detector that flags jobs running past their family's
//     rolling p99. The coordinator's own gauges publish as "autorfm.coord".
//
// Every expvar goes through one publish helper; every JSON-lines file
// (metrics stream, span log) through one validator, ValidateFile.
//
// Everything here is strictly observational. The simulator attaches probes
// behind nil guards, so with telemetry disabled the PR-3/PR-4 zero-alloc
// hot path is untouched (one predictable not-taken branch per command), and
// with telemetry enabled the simulation Result is bit-identical to an
// unobserved run — the probes read state, never mutate it, and the sampler
// events are subtracted from the dispatched-event count (pinned by
// internal/sim's TestTelemetryDoesNotChangeResult).
//
// The package sits below the model packages: it imports only clk and stats
// from this module, so memctrl and dram can record into it without an
// import cycle. It does not import net/http/pprof, whose init registers
// /debug/pprof on DefaultServeMux in every binary that links the
// simulator; commands that serve pprof import it themselves.
package telemetry
