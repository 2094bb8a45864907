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
	// Done is dispatched at data-return time for reads; nil for writes
	// (writebacks are posted).
	Done event.Handler

	arrive   clk.Tick
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

// bankState is one bank's scheduling state, and the handler of the bank's
// scheduling passes (OnEvent); bankMit and bankPrac are views of it that
// handle its deferred mitigation starts and PRAC back-offs. Its fields are
// ordered by use: a scheduling pass that issues nothing, most of them,
// reads only the leading ones.
type bankState struct {
	c *Controller
	// gen numbers the bank's wakes; each pass is armed with the gen of its
	// wake as the event argument, and a pass whose argument is no longer
	// gen was superseded and does nothing. 32 bits cannot alias: a pending
	// pass is never 2^32 re-arms of its bank old. Each re-arm takes a
	// request arriving at the bank or a pass of it, a few per tick at most,
	// and no pass is armed further ahead than a blocking window or two
	// (tRFC, tRFM, the ALERT retry wait): thousands of ticks, not 2^32
	// re-arms. Reset moves gen on, so no pass armed before it matches
	// either.
	gen       uint32
	scheduled bool
	wakeAt    clk.Tick
	qn        int

	openRow   int64       // -1 when no row is open
	openUntil clk.Tick    // actTime + tRAS: the auto-precharge point
	actTime   clk.Tick    // ACT time of the open row
	busyUntil clk.Tick    // REF / RFM / ALERT-retry blocking
	nextAct   clk.Tick    // earliest time the next ACT may issue (tRC rule)
	sub       *subchState // the subchannel this bank shares ACT constraints with
	raa       int         // rolling activation count (RFM mode)
	bank      *dram.Bank  // the device bank this state schedules

	id int
	// queue is a ring buffer of qn pending requests, oldest at qhead; its
	// capacity is a power of two so index arithmetic is a mask.
	queue []queued
	qhead int
}

// queued is one bank-queue slot: a request and the row it maps to, kept
// beside it so that a scheduling pass reads the front row without touching
// the request.
type queued struct {
	req *Request
	row uint32
}

// push appends req, which maps to row, to the bank queue, growing the ring
// when full.
func (b *bankState) push(req *Request, row uint32) {
	if b.qn == len(b.queue) {
		grown := make([]queued, max(16, 2*len(b.queue)))
		for i := 0; i < b.qn; i++ {
			grown[i] = b.queue[(b.qhead+i)&(len(b.queue)-1)]
		}
		b.queue, b.qhead = grown, 0
	}
	b.queue[(b.qhead+b.qn)&(len(b.queue)-1)] = queued{req, row}
	b.qn++
}

// front returns the oldest queued request and its row.
func (b *bankState) front() (*Request, uint32) {
	f := &b.queue[b.qhead]
	return f.req, f.row
}

// pop removes the oldest queued request.
func (b *bankState) pop() {
	b.queue[b.qhead].req = nil
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

// OnEvent is the bank's scheduling pass. The event's argument is the gen
// its wake armed it with; a pass that a later wake superseded is still
// dispatched, but returns at once.
func (b *bankState) OnEvent(now clk.Tick) {
	if b.c.q.Arg() != b.gen {
		return
	}
	b.scheduled = false
	b.c.tryIssue(b, now)
}

// bankMit handles a bank's deferred mitigation start, armed for the
// precharge point of the ACT that closed a tracker window: the event's own
// time is the precharge time.
type bankMit bankState

func (m *bankMit) OnEvent(now clk.Tick) { m.bank.StartPendingMitigation(now) }

// bankPrac handles a bank's PRAC back-off grant.
type bankPrac bankState

func (p *bankPrac) OnEvent(now clk.Tick) {
	b := (*bankState)(p)
	c := b.c
	start := clk.Max(now, b.busyUntil)
	b.busyUntil = start + c.cfg.Timing.TRFM
	b.nextAct = clk.Max(b.nextAct, b.busyUntil)
	c.Stats.PRACBackoffs++
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(start, c.cfg.Timing.TRFM, telemetry.KindABO, telemetry.CausePRAC, b.id, 0)
	}
	b.bank.ExecutePRACBackoff()
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

	// modeRFM and rfmOn are fixed by Reset: the device counts RAA (ModeRFM),
	// and explicit RFM scheduling applies (ModeRFM with RFMTH > 0).
	modeRFM, rfmOn bool

	refreshT  *event.Timer
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
// start over, and the REF stream is armed on q. It keeps the bank states,
// their queue rings and the write pool, so a reused machine starts its
// next run without rebuilding them; pooled writes still queued
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
			req, _ := b.front()
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
		*b = bankState{c: c, id: i, bank: dev.Banks[i], sub: c.subch[geo.Subchannel(i)], openRow: -1,
			queue: b.queue, gen: b.gen + 1}
	}
	if c.refreshT == nil || c.q != q {
		c.refreshT = event.NewTimer(q, c.refresh)
	}
	c.cfg, c.q, c.dev = cfg, q, dev
	c.modeRFM = dev.Cfg.Mode == dram.ModeRFM
	c.rfmOn = c.modeRFM && cfg.RFMTH > 0
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
	loc := c.cfg.Mapper.Map(req.Line)
	b := c.banks[loc.Bank]
	b.push(req, loc.Row)
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

// wake schedules a scheduling pass for bank b at time t, deduplicating so
// that only the earliest pending pass survives.
func (c *Controller) wake(b *bankState, t clk.Tick) {
	if b.scheduled && b.wakeAt <= t {
		return
	}
	b.scheduled = true
	b.wakeAt = t
	b.gen++
	c.q.ScheduleArg(t, b, b.gen)
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
		if c.modeRFM {
			b.raa -= c.cfg.RFMTH
			if b.raa < 0 {
				b.raa = 0
			}
		}
		b.bank.ExecuteREF(c.refIdx)
		if b.qn > 0 || (c.rfmOn && b.raa >= c.cfg.RFMTH) {
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
		if c.rfmOn && b.raa >= c.cfg.RFMTH {
			t := clk.Max(now, clk.Max(b.nextAct, b.busyUntil))
			if t > now {
				c.wake(b, t)
				return
			}
			c.issueRFM(b, now)
		}
		return
	}

	// Row-buffer hit: the row is still open (closed-page with a tRAS grace
	// window, Section III) and we are not inside a blocking window. The
	// front row is read only once the timing allows a hit.
	if now < b.openUntil && now >= b.actTime+tm.TRCD && now >= b.busyUntil {
		if _, row := b.front(); b.openRow == int64(row) {
			c.serveCAS(b, now, true)
			return
		}
	}

	// Everything else requires the bank to be activatable, and the
	// subchannel to have tRRD/tFAW headroom.
	sub := b.sub
	t := clk.Max(now, clk.Max(b.nextAct, b.busyUntil))
	t = clk.Max(t, sub.actAllowedAt(tm))

	// Once RAA reaches the RAAmax ceiling, an RFM must precede the next
	// ACT even with demand waiting.
	if c.rfmOn && b.raa >= c.cfg.RFMTH*c.cfg.RAAMaxFactor {
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
	_, row := b.front()
	res := b.bank.Activate(now, row)
	if res.Alert {
		// The ACT failed against the SAUM: mark the bank busy and retry
		// after the mitigation time (Fig 7). The retry is guaranteed to
		// succeed with Fractal Mitigation; with recursive mitigation a
		// fresh mitigation may decline it again.
		c.Stats.Alerts++
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(now, 0, telemetry.KindALERT, telemetry.CauseAutoRFM, b.id, row)
		}
		b.busyUntil = now + c.cfg.RetryWait
		c.wake(b, b.busyUntil)
		return
	}
	c.Stats.Acts++
	sub.recordAct(now, tm)
	b.openRow = int64(row)
	b.actTime = now
	b.openUntil = now + tm.TRAS
	b.nextAct = now + tm.TRC
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(now, tm.TRAS, telemetry.KindACT, telemetry.CauseDemand, b.id, row)
		c.cfg.Trace.Record(b.openUntil, tm.TRP, telemetry.KindPRE, telemetry.CauseDemand, b.id, row)
	}
	if c.modeRFM {
		b.raa++
	}
	if res.WindowClosed {
		// The mitigation starts at this ACT's precharge (Section IV-B).
		c.q.Schedule(b.openUntil, (*bankMit)(b))
	}
	if res.ABO {
		// Grant the PRAC back-off once the row has closed: an RFM-length
		// stall during which the device mitigates the overflowing row.
		c.q.Schedule(b.nextAct, (*bankPrac)(b))
	}
	c.serveCAS(b, now+tm.TRCD, false)
}

// serveCAS issues the column access for the bank's front request at
// casTime, models data-bus occupancy, completes the request, and plans the
// next scheduling pass.
func (c *Controller) serveCAS(b *bankState, casTime clk.Tick, hit bool) {
	tm := &c.cfg.Timing
	req, row := b.front()
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
		c.cfg.Trace.Record(casTime, tm.TBURST, kind, telemetry.CauseDemand, b.id, row)
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
			c.q.Schedule(done, req.Done)
		}
	}
	c.Stats.QueueOccupancySum += uint64(b.qn)
	if c.cfg.QueueHist != nil {
		c.cfg.QueueHist.Add(b.qn)
	}

	if b.qn == 0 {
		if c.rfmOn && b.raa >= c.cfg.RFMTH {
			// Drain RAA while idle, once the row has closed.
			c.wake(b, b.nextAct)
		}
		return
	}
	// Plan the next pass: a same-row follower can CAS once the bus frees
	// up (if still within the tRAS window); anything else waits for tRC.
	if _, next := b.front(); b.openRow == int64(next) {
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
	b.bank.ExecuteRFM()
	if b.qn > 0 || b.raa >= c.cfg.RFMTH {
		c.wake(b, b.busyUntil)
	}
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
