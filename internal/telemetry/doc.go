// Package telemetry is the simulator's observability layer: everything the
// end-of-run aggregates (memctrl.Stats, dram.BankStats) cannot show because
// the paper's dynamics are temporal — ACT-per-tREFI calibration drift, RFM
// bursts after an AutoRFM threshold switch, PRAC alert back-off windows —
// and the live progress of a sweep.
//
// Its surfaces are independent and individually optional:
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
