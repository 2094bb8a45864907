package memctrl

import (
	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/mapping"
	"autorfm/internal/stats"
	"autorfm/internal/telemetry"
)

// Request is one 64-byte memory transaction.
type Request struct {
	Line  uint64
	Write bool
	// Done is invoked at data-return time for reads; nil for writes
	// (writebacks are posted).
	Done func(now clk.Tick)

	arrive   clk.Tick
	loc      mapping.Location
	pooled   bool     // owned by the controller's write pool; recycled at CAS
	nextFree *Request // write-pool free-list link
}

// Config configures the controller.
type Config struct {
	Timing clk.Timing
	Mapper mapping.Mapper
	// RetryWait is how long a bank is held busy after an ALERTed ACT before
	// the retry; defaults to the mitigation time (4 × tRC ≈ 200ns), after
	// which the paper guarantees the retry succeeds.
	RetryWait clk.Tick
	// RFMTH is the RAA threshold for ModeRFM devices (ignored otherwise).
	RFMTH int
	// RAAMaxFactor × RFMTH is the hard RAA ceiling (the DDR5 RAAMMT): the
	// MC prefers to issue RFM opportunistically while the bank is idle once
	// RAA ≥ RFMTH, but must issue it before the next ACT once RAA reaches
	// the ceiling. Defaults to 4.
	RAAMaxFactor int

	// Trace, when non-nil, receives every issued DRAM command (telemetry;
	// observational only). Nil — the default — costs one not-taken branch
	// per command.
	Trace *telemetry.CommandTrace
	// QueueHist, when non-nil, records the bank-queue depth left behind by
	// each column access (telemetry).
	QueueHist *stats.Histogram
}

// Stats aggregates controller-side counters.
type Stats struct {
	Reads, Writes     uint64
	RowHits           uint64 // CAS serviced from an open row within tRAS
	Acts              uint64 // successful activations issued
	Alerts            uint64 // ACTs declined by the device (SAUM conflict)
	RFMs              uint64 // explicit RFM commands issued
	REFs              uint64 // REF commands issued (per-channel)
	PRACBackoffs      uint64 // ABO back-off stalls granted
	ReadLatencySum    clk.Tick
	QueueOccupancySum uint64 // integral of queued requests, sampled per issue
}

type bankState struct {
	id  int
	sub *subchState // the subchannel this bank shares ACT constraints with

	// queue is a ring buffer of pending requests, oldest at qhead; its
	// capacity is a power of two so index arithmetic is a mask.
	queue []*Request
	qhead int
	qn    int

	nextAct   clk.Tick // earliest time the next ACT may issue (tRC rule)
	busyUntil clk.Tick // REF / RFM / ALERT-retry blocking
	openRow   int64    // -1 when no row is open
	actTime   clk.Tick // ACT time of the open row
	openUntil clk.Tick // actTime + tRAS: the auto-precharge point

	raa int // rolling activation count (RFM mode)

	scheduled bool
	wakeAt    clk.Tick
	gen       uint64
}

// push appends req to the bank queue, growing the ring when full.
func (b *bankState) push(req *Request) {
	if b.qn == len(b.queue) {
		grown := make([]*Request, max(16, 2*len(b.queue)))
		for i := 0; i < b.qn; i++ {
			grown[i] = b.queue[(b.qhead+i)&(len(b.queue)-1)]
		}
		b.queue, b.qhead = grown, 0
	}
	b.queue[(b.qhead+b.qn)&(len(b.queue)-1)] = req
	b.qn++
}

// front returns the oldest queued request.
func (b *bankState) front() *Request { return b.queue[b.qhead] }

// pop removes the oldest queued request.
func (b *bankState) pop() {
	b.queue[b.qhead] = nil
	b.qhead = (b.qhead + 1) & (len(b.queue) - 1)
	b.qn--
}

// subchState holds per-subchannel rank-level activation constraints.
type subchState struct {
	busFree  clk.Tick    // data-bus occupancy
	nextAct  clk.Tick    // tRRD: ACT-to-ACT across banks
	actRing  [4]clk.Tick // last four ACT times (tFAW window)
	ringHead int
}

// actAllowedAt returns the earliest time an ACT may issue on this
// subchannel under tRRD and tFAW.
func (s *subchState) actAllowedAt(tm *clk.Timing) clk.Tick {
	return clk.Max(s.nextAct, s.actRing[s.ringHead]+tm.TFAW)
}

// recordAct registers an ACT at time t.
func (s *subchState) recordAct(t clk.Tick, tm *clk.Timing) {
	s.nextAct = t + tm.TRRD
	s.actRing[s.ringHead] = t
	s.ringHead = (s.ringHead + 1) % len(s.actRing)
}

// wakeEvent is a pooled scheduling pass for one bank. The generation
// captured at arming time lets a superseded pass die silently, exactly as
// the old closure-captured gen did.
type wakeEvent struct {
	c    *Controller
	b    *bankState
	gen  uint64
	next *wakeEvent
}

func (w *wakeEvent) OnEvent(now clk.Tick) {
	c, b, gen := w.c, w.b, w.gen
	c.putWake(w) // consumed; safe to recycle before dispatching
	if b.gen != gen {
		return
	}
	b.scheduled = false
	c.tryIssue(b, now)
}

// mitEvent is a pooled deferred mitigation start (fires at the precharge
// point of the ACT that closed a tracker window).
type mitEvent struct {
	c    *Controller
	bank *dram.Bank
	pt   clk.Tick
	next *mitEvent
}

func (m *mitEvent) OnEvent(clk.Tick) {
	c, bank, pt := m.c, m.bank, m.pt
	c.putMit(m)
	bank.StartPendingMitigation(pt)
}

// pracEvent is a pooled PRAC back-off grant for one bank.
type pracEvent struct {
	c    *Controller
	b    *bankState
	next *pracEvent
}

func (p *pracEvent) OnEvent(now clk.Tick) {
	c, b := p.c, p.b
	c.putPrac(p)
	start := clk.Max(now, b.busyUntil)
	b.busyUntil = start + c.cfg.Timing.TRFM
	b.nextAct = clk.Max(b.nextAct, b.busyUntil)
	c.Stats.PRACBackoffs++
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(start, c.cfg.Timing.TRFM, telemetry.KindABO, telemetry.CausePRAC, b.id, 0)
	}
	c.dev.Banks[b.id].ExecutePRACBackoff()
	if b.qn > 0 {
		c.wake(b, b.busyUntil)
	}
}

// Controller schedules commands for one channel.
type Controller struct {
	cfg     Config
	q       *event.Queue
	dev     *dram.Device
	banks   []*bankState
	subch   []*subchState
	refIdx  uint64
	pending int // requests admitted but not completed/issued-for-write

	refreshT  *event.Timer
	freeWake  *wakeEvent
	freeMit   *mitEvent
	freePrac  *pracEvent
	freeWrite *Request // pooled posted-write requests (SubmitWrite)

	Stats Stats
}

// New builds a controller for dev, driven by the event queue q. It schedules
// the periodic REF stream immediately.
func New(cfg Config, dev *dram.Device, q *event.Queue) *Controller {
	c := &Controller{}
	c.Reset(cfg, dev, q)
	return c
}

// Reset reinitialises c for cfg, dev and q exactly as New builds a
// controller: bank and subchannel timing, RAA, the REF index and the stats
// start over, and the REF stream is armed on q. It keeps the bank queue
// rings and the wake, mitigation, PRAC and write pools, so a reused machine
// starts its next run without rebuilding them; pooled writes still queued
// return to the write pool and other queued requests are dropped. Events c
// armed before the Reset must not fire after it: q must be a reset or new
// queue, as it is for New.
func (c *Controller) Reset(cfg Config, dev *dram.Device, q *event.Queue) {
	if cfg.RetryWait == 0 {
		cfg.RetryWait = cfg.Timing.MitigationTime(4)
	}
	if cfg.RAAMaxFactor == 0 {
		cfg.RAAMaxFactor = 4
	}
	for _, b := range c.banks {
		for b.qn > 0 {
			req := b.front()
			b.pop()
			if req.pooled {
				c.recycleWrite(req)
			}
		}
	}
	// The bank→subchannel mapping is static; resolving it here keeps
	// Geometry() — a by-value struct copy — out of the per-wake hot path.
	geo := cfg.Mapper.Geometry()
	if len(c.subch) != geo.Subchannels {
		c.subch = make([]*subchState, geo.Subchannels)
		for i := range c.subch {
			c.subch[i] = &subchState{}
		}
	}
	for _, sub := range c.subch {
		*sub = subchState{}
		for j := range sub.actRing {
			sub.actRing[j] = -clk.MS(1) // no ACTs in the initial tFAW window
		}
	}
	if len(c.banks) != geo.Banks {
		c.banks = make([]*bankState, geo.Banks)
		for i := range c.banks {
			c.banks[i] = &bankState{}
		}
	}
	for i, b := range c.banks {
		// The generation moves on, so no wake armed before the Reset can
		// pass for a current one.
		*b = bankState{id: i, sub: c.subch[geo.Subchannel(i)], openRow: -1,
			queue: b.queue, gen: b.gen + 1}
	}
	if c.refreshT == nil || c.q != q {
		c.refreshT = event.NewTimer(q, c.refresh)
	}
	c.cfg, c.q, c.dev = cfg, q, dev
	c.refIdx, c.pending = 0, 0
	c.Stats = Stats{}
	c.refreshT.At(q.Now() + cfg.Timing.TREFI)
}

// Pending returns the number of requests admitted but not yet completed
// (writes count until their ACT/CAS issues).
func (c *Controller) Pending() int { return c.pending }

// QueueDepths reports the current total queued requests across all banks and
// the deepest single bank queue (telemetry gauges; O(banks)).
func (c *Controller) QueueDepths() (total, max int) {
	for _, b := range c.banks {
		total += b.qn
		if b.qn > max {
			max = b.qn
		}
	}
	return total, max
}

// Submit admits a request at the current simulation time.
func (c *Controller) Submit(req *Request) {
	now := c.q.Now()
	req.arrive = now
	req.loc = c.cfg.Mapper.Map(req.Line)
	b := c.banks[req.loc.Bank]
	b.push(req)
	c.pending++
	c.wake(b, now)
}

// SubmitWrite admits a posted write, drawing the Request from the
// controller's pool; it is recycled when the write's CAS issues, so
// steady-state writeback traffic allocates nothing.
func (c *Controller) SubmitWrite(line uint64) {
	req := c.freeWrite
	if req == nil {
		req = &Request{pooled: true}
	} else {
		c.freeWrite = req.nextFree
		req.nextFree = nil
	}
	req.Line, req.Write, req.Done = line, true, nil
	c.Submit(req)
}

// recycleWrite returns a pooled posted-write request to the free list once
// its CAS has issued and nothing references it.
func (c *Controller) recycleWrite(req *Request) {
	req.nextFree = c.freeWrite
	c.freeWrite = req
}

// getWake takes a wake event from the free list.
func (c *Controller) getWake() *wakeEvent {
	w := c.freeWake
	if w == nil {
		return &wakeEvent{c: c}
	}
	c.freeWake = w.next
	w.next = nil
	return w
}

func (c *Controller) putWake(w *wakeEvent) {
	w.next = c.freeWake
	c.freeWake = w
}

func (c *Controller) getMit() *mitEvent {
	m := c.freeMit
	if m == nil {
		return &mitEvent{c: c}
	}
	c.freeMit = m.next
	m.next = nil
	return m
}

func (c *Controller) putMit(m *mitEvent) {
	m.next = c.freeMit
	c.freeMit = m
}

func (c *Controller) getPrac() *pracEvent {
	p := c.freePrac
	if p == nil {
		return &pracEvent{c: c}
	}
	c.freePrac = p.next
	p.next = nil
	return p
}

func (c *Controller) putPrac(p *pracEvent) {
	p.next = c.freePrac
	c.freePrac = p
}

// wake schedules a scheduling pass for bank b at time t, deduplicating so
// that only the earliest pending pass survives.
func (c *Controller) wake(b *bankState, t clk.Tick) {
	if b.scheduled && b.wakeAt <= t {
		return
	}
	b.scheduled = true
	b.wakeAt = t
	b.gen++
	w := c.getWake()
	w.b, w.gen = b, b.gen
	c.q.Schedule(t, w)
}

// refresh issues the periodic all-bank REF: every bank is blocked for tRFC
// once its in-flight row has closed. REF also rolls back RAA by RFMTH
// (Section II-E) and lets the device do its REF-time work.
func (c *Controller) refresh(now clk.Tick) {
	c.Stats.REFs++
	c.refIdx++
	tm := &c.cfg.Timing
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(now, tm.TRFC, telemetry.KindREF, telemetry.CauseREF, telemetry.ChannelTrack, 0)
	}
	for _, b := range c.banks {
		start := clk.Max(now, clk.Max(b.nextAct, b.busyUntil))
		b.busyUntil = start + tm.TRFC
		b.nextAct = clk.Max(b.nextAct, b.busyUntil)
		b.openRow = -1
		if c.dev.Cfg.Mode == dram.ModeRFM {
			b.raa -= c.cfg.RFMTH
			if b.raa < 0 {
				b.raa = 0
			}
		}
		c.dev.Banks[b.id].ExecuteREF(c.refIdx)
		if b.qn > 0 || (c.rfmActive() && b.raa >= c.cfg.RFMTH) {
			c.wake(b, b.busyUntil)
		}
	}
	c.refreshT.At(now + tm.TREFI)
}

// tryIssue is the per-bank scheduler: serve a row hit if one is possible,
// otherwise issue any pending RFM, otherwise activate for the oldest
// request.
func (c *Controller) tryIssue(b *bankState, now clk.Tick) {
	tm := &c.cfg.Timing

	if b.qn == 0 {
		// Idle bank: drain accumulated RAA opportunistically so the RFM
		// cost is not paid by demand requests.
		if c.rfmActive() && b.raa >= c.cfg.RFMTH {
			t := clk.Max(now, clk.Max(b.nextAct, b.busyUntil))
			if t > now {
				c.wake(b, t)
				return
			}
			c.issueRFM(b, now)
		}
		return
	}
	req := b.front()

	// Row-buffer hit: the row is still open (closed-page with a tRAS grace
	// window, Section III) and we are not inside a blocking window.
	if b.openRow == int64(req.loc.Row) && now < b.openUntil && now >= b.actTime+tm.TRCD && now >= b.busyUntil {
		c.serveCAS(b, req, now, true)
		return
	}

	// Everything else requires the bank to be activatable, and the
	// subchannel to have tRRD/tFAW headroom.
	sub := b.sub
	t := clk.Max(now, clk.Max(b.nextAct, b.busyUntil))
	t = clk.Max(t, sub.actAllowedAt(tm))

	// Once RAA reaches the RAAmax ceiling, an RFM must precede the next
	// ACT even with demand waiting.
	if c.rfmActive() && b.raa >= c.cfg.RFMTH*c.cfg.RAAMaxFactor {
		if t > now {
			c.wake(b, t)
			return
		}
		c.issueRFM(b, now)
		return
	}

	if t > now {
		c.wake(b, t)
		return
	}

	// Issue the ACT.
	res := c.dev.Banks[b.id].Activate(now, req.loc.Row)
	if res.Alert {
		// The ACT failed against the SAUM: mark the bank busy and retry
		// after the mitigation time (Fig 7). The retry is guaranteed to
		// succeed with Fractal Mitigation; with recursive mitigation a
		// fresh mitigation may decline it again.
		c.Stats.Alerts++
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(now, 0, telemetry.KindALERT, telemetry.CauseAutoRFM, b.id, req.loc.Row)
		}
		b.busyUntil = now + c.cfg.RetryWait
		c.wake(b, b.busyUntil)
		return
	}
	c.Stats.Acts++
	sub.recordAct(now, tm)
	b.openRow = int64(req.loc.Row)
	b.actTime = now
	b.openUntil = now + tm.TRAS
	b.nextAct = now + tm.TRC
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(now, tm.TRAS, telemetry.KindACT, telemetry.CauseDemand, b.id, req.loc.Row)
		c.cfg.Trace.Record(b.openUntil, tm.TRP, telemetry.KindPRE, telemetry.CauseDemand, b.id, req.loc.Row)
	}
	if c.dev.Cfg.Mode == dram.ModeRFM {
		b.raa++
	}
	if res.WindowClosed {
		// The mitigation starts at this ACT's precharge (Section IV-B).
		m := c.getMit()
		m.bank, m.pt = c.dev.Banks[b.id], b.openUntil
		c.q.Schedule(b.openUntil, m)
	}
	if res.ABO {
		// Grant the PRAC back-off once the row has closed: an RFM-length
		// stall during which the device mitigates the overflowing row.
		c.schedulePRACBackoff(b)
	}
	c.serveCAS(b, req, now+tm.TRCD, false)
}

// serveCAS issues the column access for req at casTime, models data-bus
// occupancy, completes the request, and plans the next scheduling pass.
func (c *Controller) serveCAS(b *bankState, req *Request, casTime clk.Tick, hit bool) {
	tm := &c.cfg.Timing
	sub := b.sub
	dataStart := clk.Max(casTime+tm.TCL, sub.busFree)
	sub.busFree = dataStart + tm.TBURST
	done := dataStart + tm.TBURST

	b.pop()
	c.pending--
	if hit {
		c.Stats.RowHits++
	}
	if c.cfg.Trace != nil {
		kind := telemetry.KindRD
		if req.Write {
			kind = telemetry.KindWR
		}
		c.cfg.Trace.Record(casTime, tm.TBURST, kind, telemetry.CauseDemand, b.id, req.loc.Row)
	}
	if req.Write {
		c.Stats.Writes++
		if req.pooled {
			c.recycleWrite(req)
		}
	} else {
		c.Stats.Reads++
		c.Stats.ReadLatencySum += done - req.arrive
		if req.Done != nil {
			c.q.At(done, req.Done)
		}
	}
	c.Stats.QueueOccupancySum += uint64(b.qn)
	if c.cfg.QueueHist != nil {
		c.cfg.QueueHist.Add(b.qn)
	}

	if b.qn == 0 {
		if c.rfmActive() && b.raa >= c.cfg.RFMTH {
			// Drain RAA while idle, once the row has closed.
			c.wake(b, b.nextAct)
		}
		return
	}
	// Plan the next pass: a same-row follower can CAS once the bus frees
	// up (if still within the tRAS window); anything else waits for tRC.
	next := b.front()
	if b.openRow == int64(next.loc.Row) {
		at := clk.Max(casTime+tm.TBURST, b.actTime+tm.TRCD)
		if at < b.openUntil {
			c.wake(b, at)
			return
		}
	}
	c.wake(b, b.nextAct)
}

// issueRFM issues one RFM command at now: the bank stalls for tRFM while
// the device performs a mitigation, and RAA rolls back by RFMTH.
func (c *Controller) issueRFM(b *bankState, now clk.Tick) {
	c.Stats.RFMs++
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(now, c.cfg.Timing.TRFM, telemetry.KindRFM, telemetry.CauseRFM, b.id, 0)
	}
	b.busyUntil = now + c.cfg.Timing.TRFM
	b.raa -= c.cfg.RFMTH
	if b.raa < 0 {
		b.raa = 0
	}
	c.dev.Banks[b.id].ExecuteRFM()
	if b.qn > 0 || b.raa >= c.cfg.RFMTH {
		c.wake(b, b.busyUntil)
	}
}

// rfmActive reports whether explicit RFM scheduling applies.
func (c *Controller) rfmActive() bool {
	return c.dev.Cfg.Mode == dram.ModeRFM && c.cfg.RFMTH > 0
}

// schedulePRACBackoff stalls the bank for tRFM once the current row closes
// and lets the device perform the ABO mitigation.
func (c *Controller) schedulePRACBackoff(b *bankState) {
	p := c.getPrac()
	p.b = b
	c.q.Schedule(b.nextAct, p)
}

// AvgReadLatency returns the mean read latency in nanoseconds.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return (clk.Tick(float64(s.ReadLatencySum) / float64(s.Reads))).Nanoseconds()
}

// AlertPerAct returns the probability that an ACT is declined (Fig 8b).
func (s Stats) AlertPerAct() float64 {
	if s.Acts == 0 {
		return 0
	}
	return float64(s.Alerts) / float64(s.Acts)
}

// RowHitRate returns the fraction of requests served from an open row.
func (s Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}
