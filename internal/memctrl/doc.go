// Package memctrl implements the memory controller: per-bank request
// queues, a closed-page command scheduler with a tRAS row-hit window,
// data-bus contention per subchannel, periodic refresh, and the three
// mitigation-time protocols the paper compares:
//
//   - RFM (Section II-E): the MC counts activations per bank (RAA) and
//     issues a blocking RFM command when the count reaches RFMTH; REF
//     decrements RAA by RFMTH.
//   - AutoRFM (Section IV): the device mitigates transparently; the MC only
//     reacts to ALERT on a failed ACT by marking the bank busy for the
//     mitigation time and retrying (the busy-bit + timestamp design of
//     Fig 7 — one bit and one timestamp per bank, 128 bytes of SRAM total).
//   - PRAC+ABO (Section VII-A): the device raises ABO when a per-row
//     counter crosses ETH; the MC grants a back-off stall.
//
// The scheduler is event-driven: each bank re-evaluates what it can issue
// whenever a request arrives, a timing constraint expires, or a blocking
// window (REF/RFM/ALERT-retry) ends. All of that event traffic is
// allocation-free at steady state, and no event needs an object of its
// own: each bank's state is the event.Handler of its scheduling passes,
// armed with the bank's wake generation as the event's argument so that a
// superseded pass does nothing, and two typed views of the same state
// handle its deferred mitigation starts and PRAC back-offs. The refresh
// stream is a pre-bound event.Timer, bank queues are ring buffers, and
// posted writes draw their Request from a controller-owned pool
// (SubmitWrite). A read's completion is dispatched to its Request.Done
// handler, the issuer's own object (an LLC MSHR).
package memctrl
