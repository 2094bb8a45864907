package memctrl

import (
	"math"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
)

// armBlocked queues a read on bank 0 while the bank is blocked until
// until, and dispatches the request's first pass, which finds the bank
// busy and re-arms for until.
func (r *rig) armBlocked(t *testing.T, until clk.Tick) *bankState {
	t.Helper()
	b := r.c.banks[0]
	b.busyUntil = until
	r.c.Submit(&Request{Line: r.lineFor(0, 7, 0)})
	r.q.Step()
	if !b.scheduled || b.wakeAt != until || r.c.Stats.Acts != 0 {
		t.Fatalf("the first pass did not re-arm for the bank blocked until %v", until)
	}
	return b
}

// TestSupersededWakeDispatchesAndDoesNothing arms a pass at 200, then an
// earlier one at 100 that supersedes it; the pass at 100 re-arms for 200,
// behind the superseded pass. The superseded pass must still be
// dispatched, so Result.Events counts it as before, but must not issue,
// re-arm or clear the bank's armed state; the current pass then issues.
func TestSupersededWakeDispatchesAndDoesNothing(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	b := r.armBlocked(t, 200)
	stale := b.gen
	r.c.wake(b, 100)
	if !r.q.Step() || r.q.Now() != 100 || b.wakeAt != 200 {
		t.Fatalf("pass at 100: now %v, wake at %v; want 100, 200", r.q.Now(), b.wakeAt)
	}
	current, pending := b.gen, r.q.Len()

	if !r.q.Step() || r.q.Now() != 200 || r.q.Arg() != stale {
		t.Fatalf("dispatched t=%v arg=%d, want the superseded pass (t=200, arg=%d)", r.q.Now(), r.q.Arg(), stale)
	}
	if r.c.Stats.Acts != 0 || !b.scheduled || b.gen != current || r.q.Len() != pending-1 {
		t.Fatalf("superseded pass acted: acts %d, scheduled %v, gen %d (want %d), %d pending (want %d)",
			r.c.Stats.Acts, b.scheduled, b.gen, current, r.q.Len(), pending-1)
	}
	if !r.q.Step() || r.q.Arg() != current || r.c.Stats.Acts != 1 || b.scheduled {
		t.Fatalf("current pass at 200: arg %d (want %d), acts %d, scheduled %v",
			r.q.Arg(), current, r.c.Stats.Acts, b.scheduled)
	}
}

// TestResetKillsArmedWakes arms a pass at 200, Resets the controller
// without resetting the queue, and blocks the reset bank until 300 behind
// a new request. The pass armed before the Reset must do nothing when it
// fires at 200. From generation 0 the stale pass carries 2, which a Reset
// that restarted the count would hand out again; from the top of the
// 32-bit range the wakes wrap the generation to 0.
func TestResetKillsArmedWakes(t *testing.T) {
	for _, gen := range []uint32{0, math.MaxUint32 - 1} {
		r := newRig(dram.ModeNone, 0, "")
		r.c.banks[0].gen = gen
		stale := r.armBlocked(t, 200).gen

		r.c.Reset(r.c.cfg, r.d, r.q)
		b := r.armBlocked(t, 300)
		current, pending := b.gen, r.q.Len()
		if current == stale {
			t.Fatalf("gen %d: the bank's generation after Reset equals the stale pass's (%d)", gen, stale)
		}
		if !r.q.Step() || r.q.Now() != 200 || r.q.Arg() != stale {
			t.Fatalf("gen %d: dispatched t=%v arg=%d, want the pre-Reset pass (t=200, arg=%d)",
				gen, r.q.Now(), r.q.Arg(), stale)
		}
		if !b.scheduled || b.wakeAt != 300 || b.gen != current || r.q.Len() != pending-1 {
			t.Fatalf("gen %d: pre-Reset pass acted: scheduled %v, wake at %v, gen %d (want %d), %d pending (want %d)",
				gen, b.scheduled, b.wakeAt, b.gen, current, r.q.Len(), pending-1)
		}
		if !r.q.Step() || r.q.Now() != 300 || r.c.Stats.Acts != 1 {
			t.Fatalf("gen %d: current pass: t=%v, acts %d; want 300, 1", gen, r.q.Now(), r.c.Stats.Acts)
		}
	}
}
