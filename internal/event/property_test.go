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

// scheduler abstracts the two queues so one fuzzed schedule can drive both.
type scheduler interface {
	schedule(t clk.Tick, fn Func)
	now() clk.Tick
	step() bool
}

type newSched struct{ q Queue }

func (s *newSched) schedule(t clk.Tick, fn Func) { s.q.Schedule(t, fn) }
func (s *newSched) now() clk.Tick                { return s.q.Now() }
func (s *newSched) step() bool                   { return s.q.Step() }

type oldSched struct{ q refQueue }

func (s *oldSched) schedule(t clk.Tick, fn Func) { s.q.at(t, fn) }
func (s *oldSched) now() clk.Tick                { return s.q.now }
func (s *oldSched) step() bool                   { return s.q.step() }

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

// fuzzArm returns an arm function for s that records each dispatch into
// *order as the event's id and the time it ran: each armed event may
// re-arm 0–2 follow-ups from inside its callback, up to depth 4, at
// fuzzDelay delays.
func fuzzArm(s scheduler, rng *rand.Rand, order *[]int) func(t clk.Tick, depth int) {
	nextID := 0
	var arm func(t clk.Tick, depth int)
	arm = func(t clk.Tick, depth int) {
		id := nextID
		nextID++
		s.schedule(t, func(now clk.Tick) {
			*order = append(*order, id, int(now))
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
// event ids and times, how many events ran up to a deadline, and the
// clock there. The schedule is a pure function of seed. A first burst arms
// events with deliberately colliding times near the start and at and just
// past the wheel's span, plus a few spread over four spans; each may
// re-arm follow-ups from inside its callback (same-tick and far-lane
// re-arms included), so the FIFO tie-break and causality rules are
// exercised from both outside and inside dispatch, across the wheel, the
// far lane and the current list. Events dispatch until the clock reaches
// a deadline one to three spans ahead, while far events are still pending
// beyond it, and a second burst is armed relative to that time before
// everything drains. In 9 of the test's 200 schedules a gap of a span or
// more between events empties the wheel with far events pending, so the
// clock jumps straight to the far lane (advance's last branch).
func drive(s scheduler, seed int64) (order []int, ran int, at clk.Tick) {
	rng := rand.New(rand.NewSource(seed))
	arm := fuzzArm(s, rng, &order)
	armBurst(rng, arm)
	deadline := clk.Tick(wheelSize + rng.Intn(2*wheelSize))
	for s.now() < deadline && s.step() {
		ran++
	}
	at = s.now()
	for i := 0; i < 32; i++ {
		arm(at+fuzzDelay(rng)+clk.Tick(rng.Intn(4)), 0)
	}
	for s.step() {
	}
	return order, ran, at
}

// armBurst arms drive's first burst of 64 events: colliding times near the
// start, times at and just past the wheel's span, and a few spread over
// four spans.
func armBurst(rng *rand.Rand, arm func(t clk.Tick, depth int)) {
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
}

// TestDispatchOrderMatchesReference drives the old container/heap queue
// and the timing wheel with identical fuzzed schedules and requires the
// same events run by the deadline and identical dispatch order and times,
// seed by seed. The wheel runs each schedule twice: with a closure per
// event, and with every event carried by a shared handler and told apart
// by its argument alone (argSched).
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		gotOld, ranOld, atOld := drive(&oldSched{}, seed)
		for _, s := range []scheduler{&newSched{}, newArgSched(t)} {
			gotNew, ranNew, atNew := drive(s, seed)
			if ranNew != ranOld || atNew != atOld {
				t.Fatalf("seed %d, %T: ran %d events to %v by the deadline, reference %d to %v",
					seed, s, ranNew, atNew, ranOld, atOld)
			}
			if len(gotNew) != len(gotOld) {
				t.Fatalf("seed %d, %T: dispatched %d events, reference dispatched %d",
					seed, s, len(gotNew)/2, len(gotOld)/2)
			}
			for i := range gotNew {
				if gotNew[i] != gotOld[i] {
					t.Fatalf("seed %d, %T: dispatch %d diverges: got event %d at %d, ref event %d at %d",
						seed, s, i/2, gotNew[i&^1], gotNew[i|1], gotOld[i&^1], gotOld[i|1])
				}
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
		q.Schedule(q.Now(), fn)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("Func path allocates %.1f/op, want 0", allocs)
	}
}

// argBase offsets argSched's event arguments into the top bits, so a
// schedule only replays correctly if all 32 bits of every argument
// survive the wheel, the current list, the far lane and migration.
const argBase = 0xfff0_0000

// argSched is the timing wheel driven through argument events: each arm
// goes to one of three shared handlers, with argBase plus the callback's
// index in fns as the event's argument. A schedule dispatches in the
// reference's order only if every event reaches its handler carrying the
// argument it was armed with.
type argSched struct {
	newSched
	t   *testing.T
	fns []Func
	hs  [3]argHandler
}

// argHandler is one of argSched's shared handlers.
type argHandler struct {
	s  *argSched
	id int
}

func (h *argHandler) OnEvent(now clk.Tick) {
	i := int(h.s.q.Arg() - argBase)
	if i < 0 || i >= len(h.s.fns) || i%len(h.s.hs) != h.id {
		h.s.t.Fatalf("handler %d dispatched with argument %#x, which was never armed on it", h.id, h.s.q.Arg())
	}
	h.s.fns[i](now)
}

func (s *argSched) schedule(t clk.Tick, fn Func) {
	i := len(s.fns)
	s.fns = append(s.fns, fn)
	s.q.ScheduleArg(t, &s.hs[i%len(s.hs)], uint32(argBase+i))
}

func newArgSched(t *testing.T) *argSched {
	s := &argSched{t: t}
	for i := range s.hs {
		s.hs[i] = argHandler{s: s, id: i}
	}
	return s
}

// liveSched counts a live counter down on every third dispatch, the way
// the simulator's cores count down unfinished cores as they retire.
type liveSched struct {
	newSched
	live       int
	dispatched int
}

func (s *liveSched) schedule(t clk.Tick, fn Func) {
	s.q.Schedule(t, Func(func(now clk.Tick) {
		fn(now)
		if s.dispatched++; s.dispatched%3 == 0 {
			s.live--
		}
	}))
}

// armFuzzed arms drive's first burst on s, each event re-arming
// follow-ups from inside its callback, and returns the order dispatch
// appends event ids to.
func armFuzzed(s scheduler, seed int64) *[]int {
	rng := rand.New(rand.NewSource(seed))
	order := new([]int)
	armBurst(rng, fuzzArm(s, rng, order))
	return order
}

// TestDispatchWhileMatchesStep drains identical fuzzed schedules with
// Step, checking the live counter before each event, and with
// DispatchWhile in batches of random size, and requires the same events
// in the same order, the same counts and the same stopping point: it
// stops in the same place when the counter reaches 0, wherever that falls
// (often inside a bucket), and resumes from there when it is raised.
func TestDispatchWhileMatchesStep(t *testing.T) {
	midBucket := 0
	for seed := int64(0); seed < 200; seed++ {
		batchRng := rand.New(rand.NewSource(^seed))
		stepS, batchS := &liveSched{}, &liveSched{}
		stepOrder, batchOrder := armFuzzed(stepS, seed), armFuzzed(batchS, seed)
		for round, live := range []int{1 + int(seed%40), 1 << 30} {
			stepS.live, batchS.live = live, live
			stepN := 0
			for stepS.live > 0 && stepS.q.Step() {
				stepN++
			}
			batchN := 0
			for {
				max := 1 + batchRng.Intn(9)
				n := batchS.q.DispatchWhile(&batchS.live, max)
				batchN += n
				if n > max {
					t.Fatalf("seed %d: DispatchWhile(max=%d) dispatched %d", seed, max, n)
				}
				if n < max {
					if batchS.live > 0 && batchS.q.Len() > 0 {
						t.Fatalf("seed %d: DispatchWhile stopped after %d of %d with %d live and %d pending",
							seed, n, max, batchS.live, batchS.q.Len())
					}
					break
				}
			}
			if batchN != stepN || batchS.live != stepS.live || batchS.q.Len() != stepS.q.Len() ||
				batchS.q.Now() != stepS.q.Now() {
				t.Fatalf("seed %d round %d: batches dispatched %d (live %d, %d pending, now %v); Step %d (live %d, %d pending, now %v)",
					seed, round, batchN, batchS.live, batchS.q.Len(), batchS.q.Now(),
					stepN, stepS.live, stepS.q.Len(), stepS.q.Now())
			}
			if round == 0 && batchS.q.cur != 0 {
				midBucket++ // stopped with events still due at the current time
			}
		}
		if stepS.q.Len() != 0 || len(*batchOrder) != len(*stepOrder) {
			t.Fatalf("seed %d: %d pending after the drain; dispatched %d in batches, %d by Step",
				seed, stepS.q.Len(), len(*batchOrder)/2, len(*stepOrder)/2)
		}
		for i := range *stepOrder {
			if (*batchOrder)[i] != (*stepOrder)[i] {
				t.Fatalf("seed %d: batched order diverges from Step's at dispatch %d", seed, i/2)
			}
		}
	}
	if midBucket < 20 {
		t.Fatalf("only %d of 200 schedules stopped inside a bucket; the test lost its point", midBucket)
	}
}

// countdown decrements *live when dispatched.
type countdown struct{ live *int }

func (c countdown) OnEvent(clk.Tick) { *c.live-- }

// TestDispatchWhileStopsMidBucket arms ten events for one tick, each
// counting the live counter down, and requires DispatchWhile to stop right
// after the event that reaches 0, leaving the rest of the bucket pending
// at that tick, and to return exactly how many it dispatched.
func TestDispatchWhileStopsMidBucket(t *testing.T) {
	q := &Queue{}
	live := 4
	for i := 0; i < 10; i++ {
		q.Schedule(5, countdown{&live})
	}
	q.Schedule(9, countdown{&live})
	if n := q.DispatchWhile(&live, 100); n != 4 || live != 0 || q.Len() != 7 || q.Now() != 5 {
		t.Fatalf("DispatchWhile = %d, live %d, %d pending, now %v; want 4, 0, 7, 5", n, live, q.Len(), q.Now())
	}
	if n := q.DispatchWhile(&live, 100); n != 0 {
		t.Fatalf("DispatchWhile with nothing live dispatched %d", n)
	}
	live = 100
	if n := q.DispatchWhile(&live, 3); n != 3 || q.Len() != 4 || q.Now() != 5 {
		t.Fatalf("DispatchWhile(max=3) = %d, %d pending, now %v; want 3, 4, 5", n, q.Len(), q.Now())
	}
	if n := q.DispatchWhile(&live, 100); n != 4 || live != 93 || q.Len() != 0 || q.Now() != 9 {
		t.Fatalf("draining DispatchWhile = %d, live %d, %d pending, now %v; want 4, 93, 0, 9", n, live, q.Len(), q.Now())
	}
}

// argRearm re-arms itself with the next argument until its budget runs
// out, checking each dispatch sees the argument it was armed with.
type argRearm struct {
	q    *Queue
	next uint32
	left int
	bad  int
}

func (r *argRearm) OnEvent(now clk.Tick) {
	if r.q.Arg() != r.next {
		r.bad++
	}
	if r.left > 0 {
		r.left--
		r.next++
		r.q.ScheduleArg(now+clk.Tick(r.left%2), r, r.next)
	}
}

// TestArgDispatchWhileZeroAllocs pins the scheduling pass's engine path:
// arming a handler with an argument, on the current list and the wheel,
// and draining it with DispatchWhile allocate nothing once the arena has
// grown.
func TestArgDispatchWhileZeroAllocs(t *testing.T) {
	q := &Queue{}
	h := &argRearm{q: q}
	live := 1
	for i := 0; i < 64; i++ {
		q.Schedule(q.Now(), Func(func(clk.Tick) {}))
	}
	q.DispatchWhile(&live, 1000)
	allocs := testing.AllocsPerRun(1000, func() {
		h.left = 8
		q.ScheduleArg(q.Now(), h, h.next)
		q.DispatchWhile(&live, 1000)
	})
	if allocs != 0 {
		t.Fatalf("argument schedule plus DispatchWhile allocates %.1f/op, want 0", allocs)
	}
	if h.bad != 0 {
		t.Fatalf("%d dispatches saw another argument than they were armed with", h.bad)
	}
}
