// Package cache models the shared last-level cache of the baseline system
// (Table IV: 8MB, 16-way, 64B lines): set-associative LRU with write-back,
// write-allocate semantics and MSHR-style merging of misses to the same
// line. Dirty evictions become posted write requests to the memory
// controller — these writebacks are real DRAM activations and therefore
// count toward Rowhammer pressure and RFM accounting, which is why the
// cache is modelled rather than approximated with a flat miss rate.
//
// The miss path is allocation-free at steady state: MSHRs are pooled,
// carry their DRAM request, and are that request's Done handler, so the
// controller dispatches each fill to its MSHR directly; a load's waiter is
// the core's own handler, scheduled at hit latency or after the fill.
// Writebacks draw pooled requests from the controller (SubmitWrite), and
// the stream detector's recency window is a fixed ring.
package cache
