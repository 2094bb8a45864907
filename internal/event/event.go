package event

import (
	"math/bits"

	"autorfm/internal/clk"
)

// Func is a scheduled callback; it receives the current simulation time.
// Func itself implements Handler, and func values are pointer-shaped, so
// scheduling an existing Func value allocates nothing — only constructing
// a new closure at the call site does. The simulator's hot paths schedule
// their own Handler objects instead, which spares each event the closure's
// second indirect call.
type Func func(now clk.Tick)

// OnEvent invokes the callback, making Func a Handler.
func (f Func) OnEvent(now clk.Tick) { f(now) }

// Handler receives dispatched events. Implementations that want
// allocation-free scheduling use a pointer receiver on a pooled or
// long-lived struct, pre-binding any per-event payload in its fields
// before arming, or in the event's 32-bit argument (ScheduleArg), which
// the handler reads back with Queue.Arg.
type Handler interface {
	OnEvent(now clk.Tick)
}

const (
	// wheelBits sizes the timing wheel. 2^11 ticks = 512ns at 4GHz covers
	// every DRAM timing except tREFI-scale rearms (measured: ~99.99% of all
	// schedules in a representative run land inside the horizon).
	wheelBits = 11
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	numWords  = wheelSize / 64
)

// wItem is one wheel event: an intrusive singly-linked FIFO node in the
// pooled items arena. Index 0 is a reserved sentinel so that the zero
// values of list heads, tails and the free list all mean "empty". An item
// needs no time: its bucket and the current time give it (see bucketTime).
// The argument fills what would otherwise be padding: the item stays 24
// bytes.
type wItem struct {
	h    Handler
	next int32
	arg  uint32
}

// fItem is one far-lane event. The (t, seq) pair totally orders items:
// time first, then arming order, which preserves the FIFO tie-break the
// determinism contract requires. (Wheel buckets need no sequence numbers:
// each bucket holds a single live time and appends in arming order.)
type fItem struct {
	t   clk.Tick
	seq uint64
	h   Handler
	arg uint32
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use.
//
// Near events (0 < t - Now < wheelSize) live in the timing wheel: bucket
// t&wheelMask is a FIFO of pooled items, and a bitmap-plus-summary-word
// index finds the next occupied bucket in a handful of word operations.
// Every wheel event lies in (Now, Now+wheelSize), so a bucket only ever
// holds one live time value, the one its index names within that span —
// anything at the same residue one revolution later is, by construction,
// beyond the horizon and therefore in the far heap — and per-bucket FIFO
// order is exactly global arming order.
//
// Far events (t - Now >= wheelSize) wait in a typed 4-ary min-heap ordered
// by (t, seq) and migrate into the wheel whenever the clock advances to
// within a horizon of them. Migration happens on every clock advance,
// before anything at the new time dispatches; because a near event at time
// t can only have been armed after the clock passed t-wheelSize — when any
// far event bound for t has already migrated — bucket append order remains
// global arming order across both lanes.
//
// Events at the current time form one FIFO list, the current list. When
// the clock advances to t, bucket t&wheelMask is detached whole and becomes
// that list, and an event armed for the current time (t == Now, e.g. a
// controller scheduling a pass for a request that just arrived) is appended
// to it. This is order-exact: every bucket entry was armed before the
// clock reached Now, so it precedes anything armed at Now, and appending
// keeps arming order among the rest. Dispatch pops the list's head and
// touches no bucket until the list is empty and the clock advances again.
type Queue struct {
	now clk.Tick
	arg uint32 // the argument of the event being dispatched

	// The current list, and the item arena every list draws from. items[0]
	// is a sentinel; head, tail and free value 0 = empty.
	cur, curTail int32
	items        []wItem
	free         int32
	n            int // events pending in the wheel and the current list

	// Timing wheel.
	head   [wheelSize]int32
	tail   [wheelSize]int32
	bitmap [numWords]uint64
	summry uint64 // bit w set iff bitmap[w] != 0 (numWords <= 64)

	// Far lane: events at or beyond the wheel horizon.
	far []fItem
	seq uint64
}

// Now returns the current simulation time (the time of the last dispatched
// event).
func (q *Queue) Now() clk.Tick { return q.now }

// Arg returns the argument of the event being dispatched, as ScheduleArg
// armed it (0 for Schedule). A handler reads it from inside OnEvent.
func (q *Queue) Arg() uint32 { return q.arg }

// Reset returns the queue to its zero state — time 0, nothing scheduled —
// while keeping its allocations (the items arena and the far-lane heap),
// so a reused machine schedules its first events without re-growing
// anything. Pending handlers are dropped, and every handler reference the
// arrays hold is cleared, so an abandoned run's components can be
// collected: dispatch leaves a popped item's handler in place until the
// slot is reused, which spares the hot path a store.
func (q *Queue) Reset() {
	q.now, q.arg = 0, 0
	clear(q.items)
	if len(q.items) > 1 {
		q.items = q.items[:1] // keep the index-0 sentinel
	}
	q.cur, q.curTail, q.free, q.n = 0, 0, 0, 0
	q.head = [wheelSize]int32{}
	q.tail = [wheelSize]int32{}
	q.bitmap = [numWords]uint64{}
	q.summry = 0
	clear(q.far)
	q.far = q.far[:0]
	q.seq = 0
}

// Schedule schedules h to run at time t. Scheduling in the past (t < Now)
// is a programming error and panics, since it would silently corrupt
// causality. Steady-state scheduling is allocation-free (the items arena
// and far heap retain their backing arrays).
func (q *Queue) Schedule(t clk.Tick, h Handler) { q.ScheduleArg(t, h, 0) }

// ScheduleArg is Schedule with an argument that Arg returns while h's
// OnEvent runs, so one handler object can be armed many times with a
// different payload each time.
func (q *Queue) ScheduleArg(t clk.Tick, h Handler, arg uint32) {
	d := t - q.now
	if d <= 0 || d >= wheelSize {
		q.scheduleOther(t, h, arg)
		return
	}
	// Append to wheel bucket b.
	b := int(t) & wheelMask
	idx := q.alloc(h, arg)
	if tl := q.tail[b]; tl == 0 {
		q.head[b] = idx
		q.bitmap[b>>6] |= 1 << (b & 63)
		q.summry |= 1 << (b >> 6)
	} else {
		q.items[tl].next = idx
	}
	q.tail[b] = idx
}

// scheduleOther is Schedule off the wheel: onto the current list, into
// the far lane, or a panic for a time in the past.
func (q *Queue) scheduleOther(t clk.Tick, h Handler, arg uint32) {
	d := t - q.now
	if d == 0 {
		idx := q.alloc(h, arg)
		if q.curTail == 0 {
			q.cur = idx
		} else {
			q.items[q.curTail].next = idx
		}
		q.curTail = idx
		return
	}
	if d < 0 {
		panic("event: scheduling in the past")
	}
	q.seq++
	q.far = append(q.far, fItem{t: t, seq: q.seq, h: h, arg: arg})
	q.siftUp(len(q.far) - 1)
}

// alloc takes an item for h and arg from the free list, growing the arena
// when the list is empty, and counts it pending.
func (q *Queue) alloc(h Handler, arg uint32) int32 {
	q.n++
	idx := q.free
	if idx == 0 {
		if len(q.items) == 0 {
			q.items = append(q.items, wItem{}) // index-0 sentinel
		}
		q.items = append(q.items, wItem{h: h, arg: arg})
		return int32(len(q.items) - 1)
	}
	it := &q.items[idx]
	q.free = it.next
	*it = wItem{h: h, arg: arg}
	return idx
}

// nextBucket returns the bucket of the earliest wheel event, or -1 if there
// is none. Wheel events all lie in (now, now+W), so circular bucket order
// starting just after now is exactly time order. The bucket at now's own
// residue is always empty: it was detached as the current list when the
// clock reached now, and nothing armed since can land there.
func (q *Queue) nextBucket() int {
	start := (int(q.now) + 1) & wheelMask
	w0, off := start>>6, uint(start&63)
	if w := q.bitmap[w0] >> off; w != 0 {
		return w0<<6 + int(off) + bits.TrailingZeros64(w)
	}
	if m := q.summry >> uint(w0+1); m != 0 {
		w := w0 + 1 + bits.TrailingZeros64(m)
		return w<<6 + bits.TrailingZeros64(q.bitmap[w])
	}
	// Wrap around: buckets before start are circularly later times.
	if m := q.summry & (1<<uint(w0) - 1); m != 0 {
		w := bits.TrailingZeros64(m)
		return w<<6 + bits.TrailingZeros64(q.bitmap[w])
	}
	if w := q.bitmap[w0] & (1<<off - 1); w != 0 {
		return w0<<6 + bits.TrailingZeros64(w)
	}
	return -1
}

// migrate moves far events now within the wheel horizon into their
// buckets, or onto the current list when they are due now. It must run on
// every clock advance before dispatching at the new time, so that
// near-lane arrivals (only possible from now on) always append after
// same-time far events, keeping arming order.
func (q *Queue) migrate() {
	for len(q.far) > 0 && q.far[0].t-q.now < wheelSize {
		it := q.far[0]
		n := len(q.far) - 1
		last := q.far[n]
		q.far[n] = fItem{}
		q.far = q.far[:n]
		if n > 0 {
			q.far[0] = last
			q.siftDown()
		}
		q.ScheduleArg(it.t, it.h, it.arg) // onto the wheel, or the current list when due now
	}
}

// At schedules fn to run at time t.
func (q *Queue) At(t clk.Tick, fn Func) { q.Schedule(t, fn) }

// After schedules fn to run d ticks from now.
func (q *Queue) After(d clk.Tick, fn Func) { q.Schedule(q.now+d, fn) }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n + len(q.far) }

// less orders far items by (time, arming sequence).
func less(a, b *fItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// siftUp restores the far-heap property from leaf i toward the root.
func (q *Queue) siftUp(i int) {
	h := q.far
	it := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(&it, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// siftDown restores the far-heap property from the root toward the leaves.
func (q *Queue) siftDown() {
	h := q.far
	n := len(h)
	it := h[0]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if less(&h[j], &h[m]) {
				m = j
			}
		}
		if !less(&h[m], &it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}

// bucketTime returns the time of the events in wheel bucket b, which must
// not be the bucket of now itself: the one time in (now, now+wheelSize)
// with b's residue.
func (q *Queue) bucketTime(b int) clk.Tick {
	return q.now + clk.Tick((b-int(q.now))&wheelMask)
}

// pop removes the current list's head and returns its handler, with Arg
// returning the event's argument; the current list must not be empty
// (advance refills it). It is the one dispatch path: Step and
// DispatchWhile both call it, and it is small enough to inline into their
// loops. The popped item goes to the free list and keeps its handler
// reference until alloc reuses it or Reset clears it.
func (q *Queue) pop() Handler {
	idx := q.cur
	it := &q.items[idx]
	if q.cur = it.next; q.cur == 0 {
		q.curTail = 0
	}
	it.next = q.free
	q.free = idx
	q.n--
	q.arg = it.arg
	return it.h
}

// Step dispatches the next event. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	if q.cur == 0 && q.advance() == 0 {
		return false
	}
	q.pop().OnEvent(q.now)
	return true
}

// DispatchWhile dispatches events while *live > 0, at most max of them,
// and returns how many it dispatched; fewer than max means *live reached 0
// or the queue emptied. It checks *live before every event, so it stops
// right after the event that brings *live to 0, even with more events due
// at the same time. It dispatches exactly what as many Step calls would,
// without a call per event.
func (q *Queue) DispatchWhile(live *int, max int) int {
	n := 0
	for n < max && *live > 0 {
		if q.cur == 0 && q.advance() == 0 {
			break
		}
		q.pop().OnEvent(q.now)
		n++
	}
	return n
}

// advance moves the clock to the earliest pending event and makes the
// events at that time the current list, returning its head, or 0 when
// nothing is pending; the current list must be empty. It scans for the
// next bucket once and detaches it whole. Far events migrate on every
// advance: those at the new time join the current list in (t, seq) order,
// and the rest land in buckets other than the detached one, since they
// stay a horizon beyond the old time.
func (q *Queue) advance() int32 {
	if b := q.nextBucket(); b >= 0 {
		q.now = q.bucketTime(b)
		q.cur, q.curTail = q.head[b], q.tail[b]
		q.head[b], q.tail[b] = 0, 0
		if q.bitmap[b>>6] &^= 1 << (b & 63); q.bitmap[b>>6] == 0 {
			q.summry &^= 1 << (b >> 6)
		}
		if len(q.far) > 0 && q.far[0].t-q.now < wheelSize {
			q.migrate()
		}
		return q.cur
	}
	if len(q.far) == 0 {
		return 0
	}
	q.now = q.far[0].t
	q.migrate()
	return q.cur
}
