package cpu

import (
	"autorfm/internal/clk"
	"autorfm/internal/event"
)

// Record is one trace entry: Gap non-memory instructions, then one memory
// access of the 64B line Line.
type Record struct {
	Gap   int
	Line  uint64
	Write bool
	// DependsPrev marks a load whose address depends on the previous load
	// (pointer chasing): the core cannot issue it until that load's data
	// returns, serialising the two and destroying memory-level parallelism.
	// This is the knob that differentiates irregular workloads (mcf, GAP)
	// from streaming ones.
	DependsPrev bool
}

// Stream supplies trace records. Implementations are typically infinite
// generators (internal/workload); ok=false ends the core's execution early.
type Stream interface {
	Next() (Record, bool)
}

// MemPort is where the core sends memory accesses (the LLC). For a load,
// done is the handler to dispatch, once, when the data is available: the
// port schedules it on the queue or calls its OnEvent at once. Stores pass
// nil (they are posted).
type MemPort interface {
	Access(line uint64, write bool, done event.Handler)
}

// Config parameterises a core.
type Config struct {
	Width        int   // dispatch width, instructions per cycle
	ROB          int   // reorder-buffer entries
	Instructions int64 // retire target; the core stops after this many
}

// DefaultConfig returns the Table IV core: 4-wide, 256-entry ROB.
func DefaultConfig(instructions int64) Config {
	return Config{Width: 4, ROB: 256, Instructions: instructions}
}

// memOp is one in-flight memory operation and its own event.Handler: the
// first dispatch issues the access, and for a load the second, which the
// port arms, completes it. Loads are also the ROB entry tracking that
// completion. Ops are free-listed per core, so re-arming one allocates
// nothing.
type memOp struct {
	c       *Core
	line    uint64
	write   bool
	issued  bool  // the load went to the port; the next dispatch completes it
	idx     int64 // instruction index of the load
	done    bool
	retired bool   // popped from the ROB window while still the dependence target
	next    *memOp // free-list link
}

// OnEvent issues the access at its scheduled time, or completes an issued
// load. Stores are posted and their op retires immediately; loads stay live
// until the port dispatches them a second time.
func (m *memOp) OnEvent(now clk.Tick) {
	c := m.c
	if m.issued {
		c.complete(m, now)
		return
	}
	if m.write {
		c.port.Access(m.line, true, nil)
		c.putOp(m)
		return
	}
	m.issued = true // before Access: a port may complete the load at once
	c.port.Access(m.line, false, m)
}

// Core is one simulated core.
type Core struct {
	ID   int
	cfg  Config
	strm Stream
	port MemPort
	q    *event.Queue

	dispatched int64    // instructions dispatched so far
	tD         clk.Tick // dispatch-frontier virtual time
	carry      int      // sub-cycle dispatch remainder

	// pending is a ring buffer of outstanding loads, oldest first. Its
	// capacity is a power of two so head arithmetic is a mask.
	pending []*memOp
	head, n int

	lastLoad *memOp   // most recently dispatched load (dependence target)
	freeOps  *memOp   // memOp free list
	ops      []*memOp // every op the core made, for Reset to reclaim
	adv      *event.Timer
	rec      Record
	haveRec  bool
	blocked  bool // waiting for the ROB head to complete
	running  bool // an advance pass is on the stack (re-entrancy guard)

	// Finished is true once the core has retired its instruction target.
	Finished bool
	// FinishTime is the time the last instruction retired.
	FinishTime clk.Tick
	// OnFinish, when set, is called exactly once, at the moment Finished
	// becomes true. The sim package uses it to maintain a finished-core
	// counter instead of scanning every core per event.
	OnFinish func()

	// Loads/Stores count issued memory operations.
	Loads, Stores uint64
}

// horizon bounds how far ahead of simulation time the dispatch frontier may
// run before the core yields to the event queue (keeps the queue small for
// compute-heavy phases).
const horizon = clk.Tick(4000) // 1µs

// New creates a core reading from strm and accessing memory through port.
func New(id int, cfg Config, strm Stream, port MemPort, q *event.Queue) *Core {
	c := &Core{}
	c.Reset(id, cfg, strm, port, q)
	return c
}

// Reset reinitialises c exactly as New builds a core. It keeps the memOp
// pool (every op c made goes back on its free list, including stores whose
// issue event the previous run never reached), the pending ring, the
// advance timer and OnFinish, so a reused machine starts its next run
// without allocating. Nothing c armed or handed out before the Reset may
// fire after it: q must be a reset or new queue and port must hold none of
// c's completions, as a reset LLC does.
func (c *Core) Reset(id int, cfg Config, strm Stream, port MemPort, q *event.Queue) {
	ops, pending, adv, onFinish := c.ops, c.pending, c.adv, c.OnFinish
	if adv == nil || c.q != q {
		adv = event.NewTimer(q, c.advance)
	}
	clear(pending)
	*c = Core{ID: id, cfg: cfg, strm: strm, port: port, q: q,
		ops: ops, pending: pending, adv: adv, OnFinish: onFinish}
	for _, m := range ops {
		c.putOp(m)
	}
}

// Start begins execution at the current simulation time.
func (c *Core) Start() {
	c.adv.At(c.q.Now())
}

// Retired returns the number of retired instructions (== dispatched for
// this model once pending loads complete).
func (c *Core) Retired() int64 { return c.dispatched }

// getOp takes a memOp from the free list, reset to issue on its next
// dispatch.
func (c *Core) getOp() *memOp {
	m := c.freeOps
	if m == nil {
		m = &memOp{c: c}
		c.ops = append(c.ops, m)
	} else {
		c.freeOps = m.next
	}
	m.next = nil
	m.issued, m.done, m.retired = false, false, false
	return m
}

// putOp returns a memOp to the free list. Callers must guarantee no live
// reference remains (its issue event fired, its completion fired, and it
// left both the ROB window and the dependence slot).
func (c *Core) putOp(m *memOp) {
	m.next = c.freeOps
	c.freeOps = m
}

// pushPending appends a load to the ROB window, growing the ring if the
// configured ROB exceeds the current capacity.
func (c *Core) pushPending(m *memOp) {
	if c.n == len(c.pending) {
		grown := make([]*memOp, max(16, 2*len(c.pending)))
		for i := 0; i < c.n; i++ {
			grown[i] = c.pending[(c.head+i)&(len(c.pending)-1)]
		}
		c.pending, c.head = grown, 0
	}
	c.pending[(c.head+c.n)&(len(c.pending)-1)] = m
	c.n++
}

// retireHead pops completed loads from the front of the ROB, recycling
// each unless it is still the dependence target (recycled on displacement).
func (c *Core) retireHead() {
	for c.n > 0 {
		m := c.pending[c.head]
		if !m.done {
			return
		}
		c.pending[c.head] = nil
		c.head = (c.head + 1) & (len(c.pending) - 1)
		c.n--
		if m != c.lastLoad {
			c.putOp(m)
		} else {
			m.retired = true
		}
	}
}

// finish marks the core done and fires the one-shot completion hook.
func (c *Core) finish(t clk.Tick) {
	c.Finished = true
	c.FinishTime = t
	if c.OnFinish != nil {
		c.OnFinish()
	}
}

// advance dispatches as far as the ROB window and the horizon allow.
func (c *Core) advance(now clk.Tick) {
	if c.Finished || c.running {
		return
	}
	// No defer clears the guard: a run that panics out of here drops its
	// cores (sim.Machine builds new ones), and Reset clears it anyway.
	c.running = true
	c.dispatch(now)
	c.running = false
}

// dispatch is advance's loop, run with the re-entrancy guard set.
func (c *Core) dispatch(now clk.Tick) {
	if c.tD < now {
		c.tD = now
	}
	for {
		c.retireHead()
		if c.dispatched >= c.cfg.Instructions {
			if c.n == 0 {
				c.finish(clk.Max(c.tD, now))
			}
			// Otherwise wait for the remaining loads to complete.
			return
		}
		if !c.haveRec {
			rec, ok := c.strm.Next()
			if !ok {
				// Stream exhausted: treat as finished at the frontier.
				if c.n == 0 {
					c.finish(clk.Max(c.tD, now))
				}
				return
			}
			c.rec, c.haveRec = rec, true
		}
		// ROB window: the record's memory access would be instruction
		// dispatched+gap+1; it must be within ROB of the oldest pending.
		if c.n > 0 {
			memIdx := c.dispatched + int64(c.rec.Gap) + 1
			if memIdx-c.pending[c.head].idx >= int64(c.cfg.ROB) {
				c.blocked = true
				return // resumed by the head load's completion
			}
		}
		// A dependent load cannot issue until its producer returns.
		if c.rec.DependsPrev && c.lastLoad != nil && !c.lastLoad.done {
			c.blocked = true
			return // resumed by the producer's completion
		}
		c.blocked = false
		// Dispatch the gap and the memory instruction at Width per cycle.
		n := c.rec.Gap + 1 + c.carry
		c.tD += clk.Tick(n / c.cfg.Width)
		c.carry = n % c.cfg.Width
		c.dispatched += int64(c.rec.Gap)

		// Dispatch the memory access.
		c.dispatched++
		c.haveRec = false
		issueAt := clk.Max(c.tD, now)
		m := c.getOp()
		m.line, m.write = c.rec.Line, c.rec.Write
		if m.write {
			c.Stores++
		} else {
			c.Loads++
			m.idx = c.dispatched
			c.pushPending(m)
			if old := c.lastLoad; old != nil && old.retired {
				c.putOp(old)
			}
			c.lastLoad = m
		}
		c.q.Schedule(issueAt, m)
		// Yield if the frontier has run far ahead; the queue will deliver
		// completions and we resume from them, or from this timer.
		if c.tD > now+horizon {
			c.adv.At(c.tD)
			return
		}
	}
}

// complete marks a load done and resumes the core if the ROB head cleared,
// a dependent load was waiting on this producer, or the core was done
// dispatching and waiting on stragglers.
func (c *Core) complete(m *memOp, now clk.Tick) {
	m.done = true
	switch {
	case c.n > 0 && c.pending[c.head] == m:
		c.advance(now)
	case c.lastLoad == m && c.blocked:
		c.advance(now)
	case c.dispatched >= c.cfg.Instructions:
		c.advance(now)
	}
}

// IPC returns retired instructions per core cycle (ticks are cycles).
func (c *Core) IPC() float64 {
	if c.FinishTime == 0 {
		return 0
	}
	return float64(c.dispatched) / float64(c.FinishTime)
}
