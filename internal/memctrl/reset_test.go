package memctrl

import (
	"reflect"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/rng"
)

// script submits a fixed request stream to r — reads and posted writes
// over 16 banks with row-hit followers, a sixth of them in the first 1µs
// and the rest spread over 40µs — runs it to completion, and returns each
// read's completion time.
func (r *rig) script(seed uint64) []clk.Tick {
	src := rng.New(seed)
	const n = 3000
	done := make([]clk.Tick, n)
	submitted := 0
	var bank int
	var row uint32
	for i := 0; i < n; i++ {
		if i%4 != 3 {
			bank, row = src.Intn(16), uint32(src.Intn(8192))
		}
		line := r.lineFor(bank, row, uint16(src.Intn(64)))
		write := src.Bernoulli(0.2)
		span := clk.US(40)
		if i < n/6 {
			span = clk.US(1)
		}
		r.q.At(clk.Tick(src.Int63n(int64(span))), func(now clk.Tick) {
			submitted++
			if write {
				done[i] = -1
				r.c.SubmitWrite(line)
				return
			}
			r.c.Submit(&Request{Line: line, Done: func(now clk.Tick) { done[i] = now }})
		})
	}
	for submitted < n || r.c.Pending() > 0 {
		if !r.q.Step() {
			break
		}
	}
	return done
}

// freeWrites counts the write pool's free list.
func (c *Controller) freeWrites() int {
	n := 0
	for req := c.freeWrite; req != nil; req = req.nextFree {
		n++
	}
	return n
}

// TestResetMatchesNew pins the controller's reuse contract: a controller
// stopped mid-run — past its first REF, bank queues non-empty, pooled
// writes queued, wakes armed — and Reset, on a reset or a new queue and into the same or another
// mode, serves a fixed request script exactly as New's controller does:
// the same completion time for every read and the same Stats.
func TestResetMatchesNew(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to dram.Mode
		newQueue bool
	}{
		{"AutoRFM", dram.ModeAutoRFM, dram.ModeAutoRFM, false},
		{"RFM", dram.ModeRFM, dram.ModeRFM, false},
		{"PRAC-to-RFM", dram.ModePRAC, dram.ModeRFM, false},
		{"RFM-to-PRAC", dram.ModeRFM, dram.ModePRAC, true},
		{"None-to-AutoRFM", dram.ModeNone, dram.ModeAutoRFM, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used := newRig(tc.from, 4, "")
			src := rng.New(3)
			for i := 0; i < 6000; i++ {
				line := used.lineFor(src.Intn(64), uint32(src.Intn(8192)), uint16(src.Intn(64)))
				if i%3 == 0 {
					used.c.SubmitWrite(line)
				} else {
					used.c.Submit(&Request{Line: line, Done: func(clk.Tick) {}})
				}
			}
			for used.q.Now() < clk.DDR5().TREFI+clk.US(1) {
				used.q.Step()
			}
			queued, pooled, armed := 0, 0, 0
			for _, b := range used.c.banks {
				queued += b.qn
				for k := 0; k < b.qn; k++ {
					if b.queue[(b.qhead+k)&(len(b.queue)-1)].pooled {
						pooled++
					}
				}
				if b.scheduled {
					armed++
				}
			}
			if queued == 0 || pooled == 0 || armed == 0 || used.c.refIdx == 0 {
				t.Fatalf("setup left %d queued requests, %d pooled writes, %d armed wakes, %d REFs; want all non-zero",
					queued, pooled, armed, used.c.refIdx)
			}
			freeBefore := used.c.freeWrites()

			fresh := newRig(tc.to, 4, "")
			if tc.newQueue {
				used.q = &event.Queue{}
			} else {
				used.q.Reset()
			}
			if !used.d.Reset(fresh.d.Cfg) {
				t.Fatal("device Reset refused the config")
			}
			used.c.Reset(fresh.c.cfg, used.d, used.q)
			if got := used.c.freeWrites(); got != freeBefore+pooled {
				t.Fatalf("write pool holds %d requests after Reset, want %d + %d recycled", got, freeBefore, pooled)
			}

			got, want := used.script(9), fresh.script(9)
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("request %d completes at %v after Reset, %v on a new controller", i, got[i], want[i])
					}
				}
			}
			if used.c.Stats != fresh.c.Stats {
				t.Fatalf("stats after Reset differ from a new controller:\nreset %+v\nnew   %+v", used.c.Stats, fresh.c.Stats)
			}
			if used.c.Stats.Reads == 0 || used.c.Stats.REFs == 0 {
				t.Fatalf("script exercised too little: %+v", used.c.Stats)
			}
			// The state the next request would meet matches too, REF index
			// included (only an audit ledger reads it).
			if used.c.refIdx != fresh.c.refIdx || used.c.pending != fresh.c.pending {
				t.Fatalf("refIdx/pending %d/%d after Reset, %d/%d on a new controller",
					used.c.refIdx, used.c.pending, fresh.c.refIdx, fresh.c.pending)
			}
			for i, sub := range used.c.subch {
				if *sub != *fresh.c.subch[i] {
					t.Fatalf("subchannel %d: %+v after Reset, %+v on a new controller", i, *sub, *fresh.c.subch[i])
				}
			}
			for i, b := range used.c.banks {
				f := fresh.c.banks[i]
				if b.id != f.id || b.sub != used.c.subch[indexOf(fresh.c.subch, f.sub)] ||
					b.nextAct != f.nextAct || b.busyUntil != f.busyUntil || b.openRow != f.openRow ||
					b.actTime != f.actTime || b.openUntil != f.openUntil || b.raa != f.raa ||
					b.qn != f.qn || b.scheduled != f.scheduled || b.wakeAt != f.wakeAt {
					t.Fatalf("bank %d state after Reset differs from a new controller", i)
				}
			}
		})
	}
}

// indexOf returns the position of sub in subs, or -1.
func indexOf(subs []*subchState, sub *subchState) int {
	for i, s := range subs {
		if s == sub {
			return i
		}
	}
	return -1
}
