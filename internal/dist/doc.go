// Package dist is the fault-tolerant distributed sweep fabric: it shards a
// sweep's simulation jobs across worker processes and machines while
// keeping the merged report byte-identical to a single-process run.
//
// Three pieces compose it:
//
//   - runner.Store, the content-addressed result store: a torn-write-
//     tolerant JSON-lines file used as a durable memo table keyed by
//     sim.Config.Key(). One store file can be shared across sweeps, front
//     ends, and coordinator restarts — the same file works as the -store
//     of autorfm-bench (local, -serve and -worker) and autorfm-sim.
//
//   - Coordinator, which owns a sweep's job list and serves a JSON-over-HTTP
//     lease protocol (stdlib net/http only): workers lease jobs by config
//     key, heartbeat to renew, and upload results. Expired leases (crashed
//     or kill -9'd workers) are requeued; when the queue drains but leased
//     jobs linger, stragglers are work-stolen by issuing duplicate leases
//     with first-result-wins dedup. Every completed result is persisted to
//     the store, so a coordinator restart resumes with no lost or
//     duplicated work. Coordinator implements exp.Runner, so the unchanged
//     experiment definitions drive it exactly like a local runner.Pool.
//
//   - RunWorker, the hostile-network-hardened client loop used by
//     autorfm-bench -worker: bounded retries with exponential backoff and
//     jitter, per-request timeouts, and graceful degradation — a worker
//     that loses the coordinator finishes its in-flight job, flushes it
//     to its local store, and exits cleanly with ErrCoordinatorLost.
//
// Because simulation results are deterministic per canonical config key
// (the contract internal/runner's cache is built on), correctness never
// depends on exactly-once execution: a job may run twice (steal, requeue
// race) or zero times (store hit) and the sweep's tables cannot tell.
// See docs/DISTRIBUTED.md for the protocol reference and failure matrix.
package dist
