// Package event provides the discrete-event engine that drives the
// memory-system simulation. Components schedule callbacks at absolute
// simulation times; the queue dispatches them in time order with a stable
// FIFO tie-break so runs are deterministic.
//
// The queue is built for the simulator's hot path: a timing wheel (calendar
// queue) of wheelSize one-tick buckets covers the near future, where
// profiling shows essentially every event lands (DRAM timings span a few to
// a few thousand ticks), so scheduling and dispatch are O(1) — an append to
// an intrusive per-bucket FIFO and a two-level bitmap scan — instead of a
// heap sift. Events beyond the wheel horizon (REF timers and other
// microsecond-scale rearms) go to a small typed 4-ary min-heap and migrate
// into the wheel as the clock approaches them. When the clock reaches a
// bucket's time the whole bucket becomes the current list, which dispatch
// pops without touching the wheel, and events armed for the current time
// append to it. Items carry a Handler interface and a 32-bit argument
// (ScheduleArg), which the handler reads with Arg. The simulator's
// components dispatch to their own objects directly: pooled memory
// operations and MSHRs implement Handler with pointer receivers, a memory
// request's completion is the Handler of whoever issued it, and a memory
// controller bank is the Handler of its own scheduling passes, with its
// wake generation as the argument (see internal/cpu, internal/cache,
// internal/memctrl), so no event goes through a closure. Storing a
// pointer receiver in an item never allocates. A component with a single
// recurring callback is that event's Handler itself: a core's advance, the
// controller's REF stream and the simulator's epoch sampler. Func adapts
// a plain function, for tests and one-off uses. The dispatch loop is the
// engine's too: Step and the batched DispatchWhile, which the simulator
// runs until its last core finishes, share one pop path.
package event
