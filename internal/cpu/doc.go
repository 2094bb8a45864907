// Package cpu models the out-of-order cores of the baseline system
// (Table IV: 8 cores, 4GHz, 4-wide, 256-entry ROB) at the level of detail
// that matters for memory-system studies: dispatch bandwidth, the ROB
// window limiting memory-level parallelism, and in-order retirement that
// blocks on the oldest incomplete load.
//
// The model is trace-driven and event-driven. A core consumes a stream of
// records, each "gap" non-memory instructions followed by one memory
// access. Non-memory instructions dispatch at 4 per cycle and retire
// immediately; loads occupy the ROB until their data returns (from the LLC
// or DRAM); stores drain through a store buffer and never block. The core
// stalls when the instruction it wants to dispatch is more than ROB-size
// instructions ahead of the oldest incomplete load — the classic
// ROB-window MLP limit.
//
// The core's event traffic is allocation-free at steady state: every
// in-flight memory operation is a pooled memOp and its own event.Handler,
// dispatched once to issue the access and, for a load, once more by the
// memory port to complete it; the outstanding-load window is a ring buffer
// sized to the ROB, and the dispatch-resume timer is bound once per core.
package cpu
