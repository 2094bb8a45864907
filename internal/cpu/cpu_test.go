package cpu

import (
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/event"
)

// fixedPort completes every load after a fixed latency.
type fixedPort struct {
	q           *event.Queue
	latency     clk.Tick
	inFlight    int
	maxInFlight int
	accesses    int
}

func (p *fixedPort) Access(line uint64, write bool, done event.Handler) {
	p.accesses++
	if done == nil {
		return
	}
	p.inFlight++
	if p.inFlight > p.maxInFlight {
		p.maxInFlight = p.inFlight
	}
	p.q.After(p.latency, func(now clk.Tick) {
		p.inFlight--
		done.OnEvent(now)
	})
}

// sliceStream replays a fixed set of records.
type sliceStream struct {
	recs []Record
	i    int
}

func (s *sliceStream) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// uniformStream generates an infinite run of identical records.
type uniformStream struct {
	gap  int
	next uint64
}

func (s *uniformStream) Next() (Record, bool) {
	s.next++
	return Record{Gap: s.gap, Line: s.next}, true
}

func run(q *event.Queue) {
	for q.Step() {
	}
}

func TestComputeOnlySpeed(t *testing.T) {
	// No memory accesses except a final one: 4000 instructions at 4-wide
	// should take ≈1000 cycles.
	q := &event.Queue{}
	p := &fixedPort{q: q, latency: clk.NS(1)}
	s := &sliceStream{recs: []Record{{Gap: 3999, Line: 1}}}
	c := New(0, DefaultConfig(4000), s, p, q)
	c.Start()
	run(q)
	if !c.Finished {
		t.Fatal("core did not finish")
	}
	if c.FinishTime < 999 || c.FinishTime > 1010 {
		t.Fatalf("FinishTime = %d cycles, want ≈1000", c.FinishTime)
	}
}

func TestMemoryLatencyBlocksAtROBLimit(t *testing.T) {
	// Every instruction is a load (gap 0) with 100-cycle latency. The ROB
	// holds 256 loads, so steady-state MLP is ≈256 and throughput ≈
	// 256 loads / 100 cycles.
	q := &event.Queue{}
	p := &fixedPort{q: q, latency: 100}
	s := &uniformStream{gap: 0}
	const n = 10000
	c := New(0, DefaultConfig(n), s, p, q)
	c.Start()
	run(q)
	if !c.Finished {
		t.Fatal("core did not finish")
	}
	if p.maxInFlight > 256 {
		t.Fatalf("MLP %d exceeded ROB size", p.maxInFlight)
	}
	if p.maxInFlight < 200 {
		t.Fatalf("MLP %d too small — ROB window not exploited", p.maxInFlight)
	}
	wantTime := float64(n) / 256.0 * 100.0
	got := float64(c.FinishTime)
	if got < wantTime*0.9 || got > wantTime*1.3 {
		t.Fatalf("FinishTime = %v cycles, want ≈%v", got, wantTime)
	}
}

func TestLatencySensitivity(t *testing.T) {
	// Doubling memory latency should roughly double runtime for a
	// memory-bound core.
	finish := func(lat clk.Tick) clk.Tick {
		q := &event.Queue{}
		p := &fixedPort{q: q, latency: lat}
		s := &uniformStream{gap: 10}
		c := New(0, DefaultConfig(20000), s, p, q)
		c.Start()
		run(q)
		return c.FinishTime
	}
	t1, t2 := finish(200), finish(400)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("latency 2x → runtime %.2fx, want ≈2x", ratio)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	// All stores: the core should sprint at dispatch speed regardless of
	// memory latency.
	q := &event.Queue{}
	p := &fixedPort{q: q, latency: clk.US(1)}
	s := &sliceStream{}
	for i := 0; i < 1000; i++ {
		s.recs = append(s.recs, Record{Gap: 3, Line: uint64(i), Write: true})
	}
	c := New(0, DefaultConfig(4000), s, p, q)
	c.Start()
	run(q)
	if !c.Finished {
		t.Fatal("core did not finish")
	}
	if c.FinishTime > 2000 {
		t.Fatalf("store-only run took %d cycles; stores blocked the core", c.FinishTime)
	}
	if c.Stores != 1000 {
		t.Fatalf("Stores = %d", c.Stores)
	}
}

func TestStreamExhaustionFinishes(t *testing.T) {
	q := &event.Queue{}
	p := &fixedPort{q: q, latency: 10}
	s := &sliceStream{recs: []Record{{Gap: 10, Line: 5}}}
	c := New(0, DefaultConfig(1<<40), s, p, q) // target far beyond the trace
	c.Start()
	run(q)
	if !c.Finished {
		t.Fatal("core did not finish on stream exhaustion")
	}
	if c.Retired() != 11 {
		t.Fatalf("Retired = %d, want 11", c.Retired())
	}
}

func TestIPC(t *testing.T) {
	q := &event.Queue{}
	p := &fixedPort{q: q, latency: 10}
	s := &uniformStream{gap: 100}
	c := New(0, DefaultConfig(10000), s, p, q)
	c.Start()
	run(q)
	if ipc := c.IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %v, want (0,4]", ipc)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() clk.Tick {
		q := &event.Queue{}
		p := &fixedPort{q: q, latency: 37}
		s := &uniformStream{gap: 7}
		c := New(0, DefaultConfig(5000), s, p, q)
		c.Start()
		run(q)
		return c.FinishTime
	}
	if runOnce() != runOnce() {
		t.Fatal("core model is not deterministic")
	}
}

// TestDependentLoadsSerialise: with DependsPrev on every load, MLP collapses
// to 1 and runtime scales with the full chain of latencies.
func TestDependentLoadsSerialise(t *testing.T) {
	run := func(dep bool) (clk.Tick, int) {
		q := &event.Queue{}
		p := &fixedPort{q: q, latency: 100}
		s := &sliceStream{}
		for i := 0; i < 500; i++ {
			s.recs = append(s.recs, Record{Gap: 0, Line: uint64(i), DependsPrev: dep})
		}
		c := New(0, DefaultConfig(500), s, p, q)
		c.Start()
		for q.Step() {
		}
		return c.FinishTime, p.maxInFlight
	}
	tPar, mlpPar := run(false)
	tSer, mlpSer := run(true)
	if mlpSer != 1 {
		t.Fatalf("dependent chain reached MLP %d, want 1", mlpSer)
	}
	if mlpPar < 100 {
		t.Fatalf("independent stream MLP %d, want ROB-limited", mlpPar)
	}
	if float64(tSer) < 10*float64(tPar) {
		t.Fatalf("serial chain (%v) not much slower than parallel (%v)", tSer, tPar)
	}
	// A serial chain of 500 loads at 100 cycles each ≈ 50000 cycles.
	if tSer < 49_000 || tSer > 60_000 {
		t.Fatalf("serial chain time %v, want ≈50000 cycles", tSer)
	}
}

// pooledPort completes every load after a fixed latency through a pool of
// completion events, so a warm port allocates nothing.
type pooledPort struct {
	q       *event.Queue
	latency clk.Tick
	free    []*completion
}

type completion struct {
	p    *pooledPort
	done event.Handler
}

func (c *completion) OnEvent(now clk.Tick) {
	done := c.done
	c.done = nil
	c.p.free = append(c.p.free, c)
	done.OnEvent(now)
}

func (p *pooledPort) Access(line uint64, write bool, done event.Handler) {
	if done == nil {
		return
	}
	var c *completion
	if n := len(p.free); n > 0 {
		c, p.free = p.free[n-1], p.free[:n-1]
	} else {
		c = &completion{p: p}
	}
	c.done = done
	p.q.Schedule(p.q.Now()+p.latency, c)
}

// mixedStream mixes loads, posted stores and dependent loads, then issues
// only stores from its 3,000th record on.
type mixedStream struct{ n uint64 }

func (s *mixedStream) Next() (Record, bool) {
	s.n++
	return Record{Gap: int(s.n % 5), Line: s.n * 7, Write: s.n%3 == 0 || s.n >= 3000, DependsPrev: s.n%11 == 0}, true
}

// TestCoreResetZeroAllocs guards warm core reuse: a core Reset onto a reset
// queue runs its next workload on the memOp pool and pending ring of the
// last run, arming itself as its own advance event, allocating nothing,
// and finishes exactly as a new core does. Like a simulation run, each run
// stops when the core finishes, with posted stores still queued whose ops
// only Reset can reclaim.
func TestCoreResetZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(20_000)
	s := &mixedStream{}
	runOn := func(c *Core, q *event.Queue, p *pooledPort) {
		q.Reset()
		*s = mixedStream{}
		c.Reset(0, cfg, s, p, q)
		c.Start()
		for !c.Finished && q.Step() {
		}
	}
	fq := &event.Queue{}
	fresh := New(0, cfg, &mixedStream{}, &pooledPort{q: fq, latency: 90}, fq)
	fresh.Start()
	for !fresh.Finished && fq.Step() {
	}
	if fq.Len() == 0 {
		t.Fatal("no store left queued at the finish; the test does not reach Reset's reclaim")
	}

	q := &event.Queue{}
	p := &pooledPort{q: q, latency: 90}
	finished := 0
	c := New(0, cfg, s, p, q)
	c.OnFinish = func() { finished++ }
	runOn(c, q, p)
	if c.FinishTime != fresh.FinishTime || c.Loads != fresh.Loads || c.Stores != fresh.Stores {
		t.Fatalf("reset core finished at %d with %d loads, %d stores; a new core at %d with %d, %d",
			c.FinishTime, c.Loads, c.Stores, fresh.FinishTime, fresh.Loads, fresh.Stores)
	}
	allocs := testing.AllocsPerRun(5, func() { runOn(c, q, p) })
	if allocs != 0 {
		t.Fatalf("warm core Reset and run allocate %.1f objects, want 0", allocs)
	}
	if finished != 7 || c.FinishTime != fresh.FinishTime {
		t.Fatalf("OnFinish fired %d times over 7 runs, last finish %d (want %d)", finished, c.FinishTime, fresh.FinishTime)
	}
}

// checkPort completes every load after latency ticks, or inside Access when
// latency is 0, and checks that a load handler never reaches it while it
// is still outstanding.
type checkPort struct {
	t        *testing.T
	q        *event.Queue
	latency  clk.Tick
	loads    uint64
	inFlight map[event.Handler]bool
	issues   map[event.Handler]int
}

func (p *checkPort) Access(line uint64, write bool, done event.Handler) {
	if done == nil {
		return
	}
	if p.inFlight[done] {
		p.t.Fatalf("load of line %d reached the port on a handler still outstanding", line)
	}
	p.loads++
	p.inFlight[done] = true
	p.issues[done]++
	complete := func(now clk.Tick) {
		delete(p.inFlight, done)
		done.OnEvent(now)
	}
	if p.latency == 0 {
		complete(p.q.Now())
		return
	}
	p.q.After(p.latency, complete)
}

// TestMemOpReuseIssuesBeforeCompleting guards the pooled memOp's two
// dispatches: an op reused after its load completed must issue again before
// it completes, so every load the core counts reaches the port exactly once,
// whether the port completes it inside Access or later.
func TestMemOpReuseIssuesBeforeCompleting(t *testing.T) {
	for _, latency := range []clk.Tick{0, 90} {
		q := &event.Queue{}
		p := &checkPort{t: t, q: q, latency: latency,
			inFlight: map[event.Handler]bool{}, issues: map[event.Handler]int{}}
		c := New(0, DefaultConfig(20_000), &mixedStream{}, p, q)
		c.Start()
		run(q)
		if !c.Finished {
			t.Fatalf("latency %d: core did not finish", latency)
		}
		if p.loads != c.Loads {
			t.Fatalf("latency %d: %d loads reached the port, the core counted %d", latency, p.loads, c.Loads)
		}
		if len(p.inFlight) != 0 {
			t.Fatalf("latency %d: %d loads never completed", latency, len(p.inFlight))
		}
		reused := 0
		for _, n := range p.issues {
			if n > 1 {
				reused++
			}
		}
		if reused == 0 || len(p.issues) >= int(c.Loads) {
			t.Fatalf("latency %d: %d ops for %d loads, %d reused; the test does not reach reuse",
				latency, len(p.issues), c.Loads, reused)
		}
	}
}
