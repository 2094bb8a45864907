package event

import (
	"math/bits"

	"autorfm/internal/clk"
)

// Func is a scheduled callback; it receives the current simulation time.
// Func itself implements Handler, and func values are pointer-shaped, so
// scheduling an existing Func value allocates nothing — only constructing
// a new closure at the call site does.
type Func func(now clk.Tick)

// OnEvent invokes the callback, making Func a Handler.
func (f Func) OnEvent(now clk.Tick) { f(now) }

// Handler receives dispatched events. Implementations that want
// allocation-free scheduling use a pointer receiver on a pooled or
// long-lived struct, pre-binding any per-event payload in its fields
// before arming.
type Handler interface {
	OnEvent(now clk.Tick)
}

// Timer is a re-armable handle for a component's recurring callback: the
// callback is bound once at construction, so re-arming it schedules
// without allocating. A Timer has no pending/armed state — arming it twice
// dispatches it twice, exactly like scheduling two closures.
type Timer struct {
	q  *Queue
	fn Func
}

// NewTimer binds fn to q. The one-time closure allocation happens here;
// every later At/After is allocation-free.
func NewTimer(q *Queue, fn Func) *Timer { return &Timer{q: q, fn: fn} }

// OnEvent makes Timer a Handler.
func (t *Timer) OnEvent(now clk.Tick) { t.fn(now) }

// At arms the timer to fire at absolute time tick.
func (t *Timer) At(tick clk.Tick) { t.q.Schedule(tick, t) }

// After arms the timer to fire d ticks from now.
func (t *Timer) After(d clk.Tick) { t.q.Schedule(t.q.now+d, t) }

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
// values of bucket heads, tails and the free list all mean "empty".
type wItem struct {
	t    clk.Tick
	h    Handler
	next int32
}

// fItem is one far-lane event. The (t, seq) pair totally orders items:
// time first, then arming order, which preserves the FIFO tie-break the
// determinism contract requires. (Wheel buckets need no sequence numbers:
// each bucket holds a single live time and appends in arming order.)
type fItem struct {
	t   clk.Tick
	seq uint64
	h   Handler
}

// Queue is a deterministic discrete-event queue. The zero value is ready to
// use.
//
// Near events (0 < t - Now < wheelSize) live in the timing wheel: bucket
// t&wheelMask is a FIFO of pooled items, and a bitmap-plus-summary-word
// index finds the next occupied bucket in a handful of word operations.
// A bucket only ever holds one live time value — anything at the same
// residue one revolution later is, by construction, beyond the horizon and
// therefore in the far heap — so per-bucket FIFO order is exactly global
// arming order.
//
// Far events (t - Now >= wheelSize) wait in a typed 4-ary min-heap ordered
// by (t, seq) and migrate into the wheel whenever the clock advances to
// within a horizon of them. Migration happens on every clock advance,
// before anything at the new time dispatches; because a near event at time
// t can only have been armed after the clock passed t-wheelSize — when any
// far event bound for t has already migrated — bucket append order remains
// global arming order across both lanes.
//
// Events scheduled for the current time (t == Now, e.g. a controller
// scheduling a pass for a request that just arrived) bypass the wheel into
// a FIFO lane. This is order-exact: every wheel entry with t == Now was
// necessarily armed before the clock reached Now, so it precedes anything
// armed at Now; "drain same-time bucket entries, then the lane, then
// advance the clock" reproduces the (t, seq) total order.
type Queue struct {
	now clk.Tick

	// Timing wheel. items[0] is a sentinel; head/tail/free value 0 = empty.
	items  []wItem
	free   int32
	head   [wheelSize]int32
	tail   [wheelSize]int32
	bitmap [numWords]uint64
	summry uint64 // bit w set iff bitmap[w] != 0 (numWords <= 64)
	wheelN int

	// Far lane: events at or beyond the wheel horizon.
	far []fItem
	seq uint64

	nowQ    []Handler // events armed at the current time, FIFO
	nowHead int
}

// Now returns the current simulation time (the time of the last dispatched
// event).
func (q *Queue) Now() clk.Tick { return q.now }

// Reset returns the queue to its zero state — time 0, nothing scheduled —
// while keeping its allocations (the items arena, far-lane heap, and
// now-lane backing arrays), so a reused machine schedules its first events
// without re-growing anything. Pending handlers are dropped and their
// references cleared so an abandoned run's components can be collected.
func (q *Queue) Reset() {
	q.now = 0
	for i := range q.items {
		q.items[i] = wItem{}
	}
	if len(q.items) > 1 {
		q.items = q.items[:1] // keep the index-0 sentinel
	}
	q.free = 0
	q.head = [wheelSize]int32{}
	q.tail = [wheelSize]int32{}
	q.bitmap = [numWords]uint64{}
	q.summry = 0
	q.wheelN = 0
	for i := range q.far {
		q.far[i] = fItem{}
	}
	q.far = q.far[:0]
	q.seq = 0
	for i := range q.nowQ {
		q.nowQ[i] = nil
	}
	q.nowQ = q.nowQ[:0]
	q.nowHead = 0
}

// Schedule schedules h to run at time t. Scheduling in the past (t < Now)
// is a programming error and panics, since it would silently corrupt
// causality. Steady-state scheduling is allocation-free (the items arena,
// bucket lists and far heap all retain their backing arrays).
func (q *Queue) Schedule(t clk.Tick, h Handler) {
	d := t - q.now
	if d <= 0 {
		if d == 0 {
			q.nowQ = append(q.nowQ, h)
			return
		}
		panic("event: scheduling in the past")
	}
	if d < wheelSize {
		q.push(int(t)&wheelMask, t, h)
		return
	}
	q.seq++
	q.far = append(q.far, fItem{t: t, seq: q.seq, h: h})
	q.siftUp(len(q.far) - 1)
}

// push appends an event to wheel bucket b.
func (q *Queue) push(b int, t clk.Tick, h Handler) {
	idx := q.free
	if idx == 0 {
		if len(q.items) == 0 {
			q.items = append(q.items, wItem{}) // index-0 sentinel
		}
		q.items = append(q.items, wItem{t: t, h: h})
		idx = int32(len(q.items) - 1)
	} else {
		q.free = q.items[idx].next
		q.items[idx] = wItem{t: t, h: h}
	}
	if q.tail[b] == 0 {
		q.head[b] = idx
		q.bitmap[b>>6] |= 1 << (b & 63)
		q.summry |= 1 << (b >> 6)
	} else {
		q.items[q.tail[b]].next = idx
	}
	q.tail[b] = idx
	q.wheelN++
}

// popBucket removes and returns the head event of bucket b, which must be
// non-empty, recycling its item into the free list.
func (q *Queue) popBucket(b int) (clk.Tick, Handler) {
	idx := q.head[b]
	it := &q.items[idx]
	t, h := it.t, it.h
	q.head[b] = it.next
	if it.next == 0 {
		q.tail[b] = 0
		if q.bitmap[b>>6] &^= 1 << (b & 63); q.bitmap[b>>6] == 0 {
			q.summry &^= 1 << (b >> 6)
		}
	}
	it.h = nil // drop the Handler reference for the GC
	it.next = q.free
	q.free = idx
	q.wheelN--
	return t, h
}

// nextBucket returns the bucket of the earliest wheel event strictly after
// now, or -1 if there is none. Events at t > now all lie in (now, now+W),
// so circular bucket order starting just after now is exactly time order.
// The bucket at now's own residue can additionally hold remaining events at
// t == now (a slow-path dispatch pops only the bucket head); this scan would
// see those as circularly last, so nextTime checks that bucket first.
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
// buckets. It must run on every clock advance before dispatching at the
// new time, so that near-lane arrivals (only possible from now on) always
// append after same-time far events, keeping arming order.
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
		q.push(int(it.t)&wheelMask, it.t, it.h)
	}
}

// At schedules fn to run at time t.
func (q *Queue) At(t clk.Tick, fn Func) { q.Schedule(t, fn) }

// After schedules fn to run d ticks from now.
func (q *Queue) After(d clk.Tick, fn Func) { q.Schedule(q.now+d, fn) }

// Len returns the number of pending events.
func (q *Queue) Len() int {
	return q.wheelN + len(q.far) + len(q.nowQ) - q.nowHead
}

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

// nextTime returns the time of the earliest pending event that is not in
// the now-lane, or (0, false) when none is pending. Wheel events always
// precede far events: migration keeps every far event at least a horizon
// away.
func (q *Queue) nextTime() (clk.Tick, bool) {
	// Same-tick events can remain in the current-residue bucket after a
	// slow-path dispatch popped only its head; they precede everything
	// nextBucket can see (its circular scan starts after now and would
	// order them a full revolution late).
	if b := int(q.now) & wheelMask; q.head[b] != 0 && q.items[q.head[b]].t == q.now {
		return q.now, true
	}
	if b := q.nextBucket(); b >= 0 {
		return q.items[q.head[b]].t, true
	}
	if len(q.far) > 0 {
		return q.far[0].t, true
	}
	return 0, false
}

// Step dispatches the next event. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	// Wheel entries at the current time dispatch before the now-lane (they
	// were armed earlier); then the lane drains; only then may the clock
	// advance.
	b := int(q.now) & wheelMask
	if q.head[b] != 0 && q.items[q.head[b]].t == q.now {
		t, h := q.popBucket(b)
		h.OnEvent(t)
		return true
	}
	if q.nowHead < len(q.nowQ) {
		h := q.nowQ[q.nowHead]
		q.nowQ[q.nowHead] = nil // drop the Handler reference for the GC
		q.nowHead++
		if q.nowHead == len(q.nowQ) {
			q.nowQ = q.nowQ[:0] // drained: reuse the backing array
			q.nowHead = 0
		}
		h.OnEvent(q.now)
		return true
	}
	t, ok := q.nextTime()
	if !ok {
		return false
	}
	q.now = t
	q.migrate() // a far event may be the one dispatching at t
	t2, h := q.popBucket(int(t) & wheelMask)
	h.OnEvent(t2)
	return true
}

// RunUntil dispatches events until the queue is empty or the next event is
// after deadline. It returns the number of events dispatched.
func (q *Queue) RunUntil(deadline clk.Tick) int {
	n := 0
	for q.Len() > 0 {
		if q.nowHead == len(q.nowQ) {
			// The now-lane is never past the deadline (now <= deadline).
			if t, ok := q.nextTime(); ok && t > deadline {
				break
			}
		}
		q.Step()
		n++
	}
	if q.now < deadline {
		q.now = deadline
		q.migrate() // keep far events a full horizon beyond the new now
	}
	return n
}

// Run dispatches events until the queue is empty or stop returns true.
// It returns the number of events dispatched.
func (q *Queue) Run(stop func() bool) int {
	n := 0
	for q.Len() > 0 {
		if stop != nil && stop() {
			break
		}
		q.Step()
		n++
	}
	return n
}
