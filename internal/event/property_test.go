package event

import (
	"container/heap"
	"math/rand"
	"testing"

	"autorfm/internal/clk"
)

// refQueue is the pre-rewrite event queue — container/heap over
// interface{}-boxed items — kept as the reference model: Queue must
// dispatch any schedule, including same-tick ties, re-arms from inside
// callbacks and events beyond the wheel's span, in exactly the order this
// does.
type refItem struct {
	t   clk.Tick
	seq uint64
	fn  Func
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type refQueue struct {
	h   refHeap
	seq uint64
	now clk.Tick
}

func (q *refQueue) at(t clk.Tick, fn Func) {
	if t < q.now {
		panic("ref: scheduling in the past")
	}
	q.seq++
	heap.Push(&q.h, refItem{t: t, seq: q.seq, fn: fn})
}

func (q *refQueue) step() bool {
	if len(q.h) == 0 {
		return false
	}
	it := heap.Pop(&q.h).(refItem)
	q.now = it.t
	it.fn(it.t)
	return true
}

// runUntil is RunUntil on the reference: dispatch every event due by
// deadline, then move the clock to deadline if it is still earlier.
func (q *refQueue) runUntil(deadline clk.Tick) int {
	n := 0
	for len(q.h) > 0 && q.h[0].t <= deadline {
		q.step()
		n++
	}
	if q.now < deadline {
		q.now = deadline
	}
	return n
}

// scheduler abstracts the two queues so one fuzzed schedule can drive both.
type scheduler interface {
	schedule(t clk.Tick, fn Func)
	now() clk.Tick
	step() bool
	runUntil(deadline clk.Tick) int
}

type newSched struct{ q Queue }

func (s *newSched) schedule(t clk.Tick, fn Func)   { s.q.At(t, fn) }
func (s *newSched) now() clk.Tick                  { return s.q.Now() }
func (s *newSched) step() bool                     { return s.q.Step() }
func (s *newSched) runUntil(deadline clk.Tick) int { return s.q.RunUntil(deadline) }

type oldSched struct{ q refQueue }

func (s *oldSched) schedule(t clk.Tick, fn Func)   { s.q.at(t, fn) }
func (s *oldSched) now() clk.Tick                  { return s.q.now }
func (s *oldSched) step() bool                     { return s.q.step() }
func (s *oldSched) runUntil(deadline clk.Tick) int { return s.q.runUntil(deadline) }

// fuzzDelay draws the delay of a fuzzed arm: mostly 0–2 ticks (delay 0 is a
// same-tick tie with events already pending), and otherwise one of the
// wheel's edges: its last bucket, exactly its span (the first far-lane
// time), or just past it. Far arms a few ticks apart collide with each
// other and with near events armed later for the same tick, so both lanes
// and the current list meet at one time.
func fuzzDelay(rng *rand.Rand) clk.Tick {
	switch rng.Intn(8) {
	case 5:
		return wheelSize - 1
	case 6:
		return wheelSize
	case 7:
		return wheelSize + clk.Tick(rng.Intn(3))
	default:
		return clk.Tick(rng.Intn(3))
	}
}

// fuzzArm returns an arm function for s that records dispatch order into
// *order: each armed event may re-arm 0–2 follow-ups from inside its
// callback, up to depth 4, at fuzzDelay delays.
func fuzzArm(s scheduler, rng *rand.Rand, order *[]int) func(t clk.Tick, depth int) {
	nextID := 0
	var arm func(t clk.Tick, depth int)
	arm = func(t clk.Tick, depth int) {
		id := nextID
		nextID++
		s.schedule(t, func(now clk.Tick) {
			*order = append(*order, id)
			if depth < 4 {
				for k := rng.Intn(3); k > 0; k-- {
					arm(now+fuzzDelay(rng), depth+1)
				}
			}
		})
	}
	return arm
}

// drive runs one fuzzed schedule on s and returns the dispatch order as
// event ids, what its RunUntil reported, and the clock after it. The
// schedule is a pure function of seed. A first burst arms events with
// deliberately colliding times near the start and at and just past the
// wheel's span, plus a few spread over four spans; each may re-arm
// follow-ups from inside its callback (same-tick and far-lane re-arms
// included), so the FIFO tie-break and causality rules are exercised from
// both outside and inside dispatch, across the wheel, the far lane and the
// current list. RunUntil then jumps the clock one to three spans ahead
// while far events are still pending beyond the deadline, and a second
// burst is armed relative to the new time before everything drains.
func drive(s scheduler, seed int64) (order []int, ran int, at clk.Tick) {
	rng := rand.New(rand.NewSource(seed))
	arm := fuzzArm(s, rng, &order)
	for i := 0; i < 64; i++ {
		// 16 distinct ticks per group over 64 events forces plenty of ties.
		t := clk.Tick(rng.Intn(16))
		switch rng.Intn(8) {
		case 0, 1:
			t += wheelSize
		case 2:
			t = clk.Tick(rng.Intn(4 * wheelSize))
		}
		arm(t, 0)
	}
	ran = s.runUntil(clk.Tick(wheelSize + rng.Intn(2*wheelSize)))
	at = s.now()
	for i := 0; i < 32; i++ {
		arm(at+fuzzDelay(rng)+clk.Tick(rng.Intn(4)), 0)
	}
	for s.step() {
	}
	return order, ran, at
}

// TestDispatchOrderMatchesReference drives the old container/heap queue
// and the timing wheel with identical fuzzed schedules and requires the
// same RunUntil outcome and identical dispatch order, seed by seed.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		gotNew, ranNew, atNew := drive(&newSched{}, seed)
		gotOld, ranOld, atOld := drive(&oldSched{}, seed)
		if ranNew != ranOld || atNew != atOld {
			t.Fatalf("seed %d: RunUntil ran %d events to %v, reference %d to %v",
				seed, ranNew, atNew, ranOld, atOld)
		}
		if len(gotNew) != len(gotOld) {
			t.Fatalf("seed %d: dispatched %d events, reference dispatched %d",
				seed, len(gotNew), len(gotOld))
		}
		for i := range gotNew {
			if gotNew[i] != gotOld[i] {
				t.Fatalf("seed %d: dispatch order diverges at %d: got %v, ref %v",
					seed, i, gotNew[i], gotOld[i])
			}
		}
	}
}

// rearmHandler is a minimal pooled event: it re-arms itself until its
// budget runs out, the steady-state pattern every simulator component uses.
type rearmHandler struct {
	q    *Queue
	left int
}

func (r *rearmHandler) OnEvent(now clk.Tick) {
	if r.left > 0 {
		r.left--
		r.q.Schedule(now+1, r)
	}
}

// TestRearmPathZeroAllocs pins the tentpole invariant: once the heap's
// backing array has grown to its working size, arming a pooled handler and
// dispatching it allocates nothing.
func TestRearmPathZeroAllocs(t *testing.T) {
	q := &Queue{}
	h := &rearmHandler{q: q}
	// Pre-grow the heap so append never reallocates during measurement.
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now(), Func(func(clk.Tick) {}))
	}
	for q.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.left = 8
		q.Schedule(q.Now(), h)
		for q.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("re-arm path allocates %.1f/op, want 0", allocs)
	}
}

// TestFuncPathZeroAllocs checks the compatibility path: scheduling an
// existing Func value (no fresh closure) is also allocation-free, because
// func values are pointer-shaped and store directly in the Handler word.
func TestFuncPathZeroAllocs(t *testing.T) {
	q := &Queue{}
	n := 0
	fn := Func(func(clk.Tick) { n++ })
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now(), fn)
	}
	for q.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.At(q.Now(), fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("Func path allocates %.1f/op, want 0", allocs)
	}
}

// TestTimerZeroAllocs checks the Timer re-arm path used by recurring
// component callbacks (memctrl refresh, cpu advance).
func TestTimerZeroAllocs(t *testing.T) {
	q := &Queue{}
	fired := 0
	tm := NewTimer(q, func(clk.Tick) { fired++ })
	for i := 0; i < 64; i++ {
		tm.At(q.Now())
	}
	for q.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.After(1)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("Timer re-arm allocates %.1f/op, want 0", allocs)
	}
}
