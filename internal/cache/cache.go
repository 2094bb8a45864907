package cache

import (
	"fmt"
	"math/bits"

	"autorfm/internal/clk"
	"autorfm/internal/event"
	"autorfm/internal/hashtab"
	"autorfm/internal/memctrl"
)

// Config sizes the cache.
type Config struct {
	SizeBytes  int
	Ways       int
	LineBytes  int
	HitLatency clk.Tick
	// MissExtra is the fixed on-chip cost a miss pays beyond the DRAM
	// access itself: interconnect traversal, MC frontend, and fill-to-use
	// forwarding. It sets the loaded base latency the slowdown figures are
	// relative to.
	MissExtra clk.Tick
	// PrefetchDegree enables a next-line stream prefetcher: when a demand
	// miss extends a detected ascending stream, the next PrefetchDegree
	// lines of the same 4KB page are fetched. Stream prefetching is what
	// makes page-buddy lines arrive at DRAM close together in time — the
	// mechanism behind the Zen-mapping subarray conflicts of Fig 8.
	// 0 disables. The degree changes behaviour, not the way arrays:
	// SetPrefetchDegree changes it between runs of one cache.
	PrefetchDegree int
}

// DefaultConfig returns the Table IV LLC: 8MB, 16-way, 64B lines, with a
// 12ns hit latency typical of a large shared LLC.
func DefaultConfig() Config {
	return Config{
		SizeBytes:      8 << 20,
		Ways:           16,
		LineBytes:      64,
		HitLatency:     clk.NS(12),
		MissExtra:      clk.NS(35),
		PrefetchDegree: 40,
	}
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses uint64
	Writebacks   uint64
	Merged       uint64 // misses merged into an outstanding fill
	Prefetches   uint64 // prefetch fills issued to DRAM
}

// invalidTag marks an empty way slot; Cache.tag keeps every real tag below it.
const invalidTag = ^uint32(0)

// emptyOrder is the recency order of a set with no way in use: way k at
// position k. nibbles repeats a 4-bit value into every position.
const (
	emptyOrder = 0xFEDCBA9876543210
	nibbles    = 0x1111111111111111
)

// set is one set's replacement state. order lists all 16 way numbers by
// recency, 4 bits each, the most recent in the low nibble. The ways in use
// are always 0..n-1 (no line is ever invalidated alone) and hold positions
// 0..n-1; every unused way k stays at position k. So a set with room fills
// way n from position n, and a full set evicts the way at position ways-1.
type set struct {
	order uint64
	dirty uint16 // bit w: way w holds a modified line
	n     uint8  // ways in use
}

// touch moves way w to the most recent position. The position search is a
// SWAR zero-nibble test on order ^ w: every way number appears exactly once,
// so the lowest flagged nibble is w's.
func (st *set) touch(w int) {
	x := st.order ^ uint64(w)*nibbles
	st.front(uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) / 4)
}

// front moves the way at recency position p to position 0, shifting the
// ways more recent than it down by one.
func (st *set) front(p uint) {
	sh := 4 * p
	w := st.order >> sh & 15
	older := st.order &^ (uint64(1)<<(sh+4) - 1)
	st.order = older | (st.order&(uint64(1)<<sh-1))<<4 | w
}

// victim picks the way a new line goes to and makes it the most recent:
// way n while the set has room, else the least recent way. full reports
// that a resident line is being replaced.
func (st *set) victim(ways int) (w int, full bool) {
	p := uint(st.n)
	if int(p) < ways {
		st.n++
	} else {
		p = uint(ways - 1)
		full = true
	}
	st.front(p)
	return int(st.order & 15), full
}

// setDirty records whether way w holds a modified line.
func (st *set) setDirty(w int, dirty bool) {
	st.dirty &^= 1 << w
	if dirty {
		st.dirty |= 1 << w
	}
}

// wayArrays is one copy of the way state: a tag per way slot (invalidTag
// when empty), a record per set, and a bitmap with bit s set once set s may
// have changed since the bitmap was last cleared.
type wayArrays struct {
	tags    []uint32
	sets    []set
	touched []uint64
}

// newWayArrays allocates way state for numSets sets of ways ways, every
// set marked.
func newWayArrays(numSets, ways int) wayArrays {
	w := wayArrays{
		tags:    make([]uint32, numSets*ways),
		sets:    make([]set, numSets),
		touched: make([]uint64, (numSets+63)/64),
	}
	w.markAll()
	return w
}

// mark records that set s is about to change. Callers mark before they
// write, so a run cut short by a panic leaves no change unmarked.
func (w *wayArrays) mark(s uint64) { w.touched[s>>6] |= 1 << (s & 63) }

// markAll marks every set.
func (w *wayArrays) markAll() {
	for i := range w.touched {
		w.touched[i] = ^uint64(0)
	}
	if n := len(w.sets) % 64; n != 0 {
		w.touched[len(w.touched)-1] = 1<<n - 1
	}
}

// rollback copies the whole arrays once more than 1/rollbackBulk of the
// sets are marked, in one streaming pass instead of a scattered copy per
// set. A job of 2k instructions per core marks about a tenth of the Table
// IV sets and a quick-scale job most of them; BenchmarkWarm times both.
const rollbackBulk = 8

// marked returns how many sets are marked.
func (w *wayArrays) marked() int {
	n := 0
	for _, x := range w.touched {
		n += bits.OnesCount64(x)
	}
	return n
}

// rollback restores every marked set from the pristine arrays tags and sets
// and clears the marks.
func (w *wayArrays) rollback(tags []uint32, sets []set) {
	if w.marked() > len(w.sets)/rollbackBulk {
		copy(w.tags, tags)
		copy(w.sets, sets)
	} else {
		ways := len(w.tags) / len(w.sets)
		for i, x := range w.touched {
			for ; x != 0; x &= x - 1 {
				s := i*64 + bits.TrailingZeros64(x)
				copy(w.tags[s*ways:(s+1)*ways], tags[s*ways:(s+1)*ways])
				w.sets[s] = sets[s]
			}
		}
	}
	clear(w.touched)
}

// mshr is one outstanding fill: the merged waiters and the DRAM request it
// rides on. It is its request's Done handler, so the controller dispatches
// the fill to it directly. MSHRs are pooled and re-armed by resetting
// line, so a steady-state miss allocates nothing.
type mshr struct {
	c       *Cache
	line    uint64
	dirty   bool // a write was merged while the fill was outstanding
	waiters []event.Handler
	req     memctrl.Request
	next    *mshr // free-list link
}

// OnEvent fills the line when its DRAM read returns.
func (m *mshr) OnEvent(now clk.Tick) { m.c.fill(m, now) }

// Cache is a shared, single-ported (contention-free) LLC model with exact
// LRU replacement.
//
// Way state is split by access pattern. The flat tag array holds each way's
// line >> setShift in 32 bits — a 16-way set's tags are one 64-byte host
// cache line — and it is all a lookup scans. Replacement state is one
// 16-byte record per set (see set): the ways' recency order packed 4 bits
// per way, a dirty mask, and the count of ways in use, touched only on a hit
// or a fill. A hit is a nibble move-to-front and a fill reads its victim off
// the order. At the default 8MB geometry the way state is 640KB, against
// 2.1MB for 64-bit tags, 64-bit LRU stamps and dirty bytes per way, so it
// stays resident in a 2MB host L2.
//
// Every change to a set also marks it in a bitmap, which is what lets
// LoadWarm roll a saved warm back by restoring only the sets a run changed.
type Cache struct {
	cfg Config
	// wayArrays is the way state the cache runs on: its own arrays from New,
	// or the working copy of owner, the WarmState last loaded.
	wayArrays
	owner    *WarmState
	ways     int
	setMask  uint64
	setShift uint // log2 of the set count: line == tag<<setShift | set
	mc       *memctrl.Controller
	q        *event.Queue
	out      hashtab.Map[uint64, *mshr] // line -> its outstanding fill
	freeM    *mshr

	// Stream-detector state: the set of recent demand-miss lines, bounded
	// by a FIFO ring. A miss to L with L-1 or L-2 recently missed is
	// treated as part of an ascending stream.
	recent     hashtab.Map[uint64, struct{}]
	recentRing [recentCap]uint64
	recentHead int // oldest entry, valid when recentN > 0
	recentN    int

	Stats Stats
}

// New builds the cache in front of mc. It panics on a geometry the model
// cannot hold: Ways must be 1 to 16 (the packed recency order has 16 slots)
// and the set count a power of two.
func New(cfg Config, mc *memctrl.Controller, q *event.Queue) *Cache {
	if cfg.Ways < 1 || cfg.Ways > 16 {
		panic(fmt.Sprintf("cache: Ways = %d unsupported: the per-set recency order holds 1 to 16 ways", cfg.Ways))
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if numSets < 1 || numSets&(numSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	c := &Cache{
		cfg:       cfg,
		wayArrays: newWayArrays(numSets, cfg.Ways),
		ways:      cfg.Ways,
		setMask:   uint64(numSets - 1),
		setShift:  uint(bits.TrailingZeros(uint(numSets))),
		mc:        mc,
		q:         q,
	}
	c.out.Init(16)
	c.recent.Init(recentCap)
	c.wipeArrays()
	return c
}

// SetPrefetchDegree sets the stream prefetcher's depth for the runs that
// follow (0 disables), so a reused cache need not be rebuilt for another
// degree. It takes effect at the next demand miss.
func (c *Cache) SetPrefetchDegree(d int) { c.cfg.PrefetchDegree = d }

// LineSpace returns how many line addresses a cache of this geometry can
// hold: lines 0 to LineSpace()-1 fit the 32-bit tag array, and a higher
// line panics wherever it is installed or looked up.
func (cfg Config) LineSpace() uint64 {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return uint64(invalidTag) << bits.TrailingZeros(uint(numSets))
}

// tag returns line's tag. A line whose tag would reach invalidTag does not
// fit the tag array; that is a caller addressing bug, reported here rather
// than as a silently aliased hit.
func (c *Cache) tag(line uint64) uint32 {
	t := line >> c.setShift
	if t >= uint64(invalidTag) {
		tagOverflow(line)
	}
	return uint32(t)
}

// tagOverflow is kept out of line so that tag inlines into the hot paths.
//
//go:noinline
func tagOverflow(line uint64) {
	panic(fmt.Sprintf("cache: line %#x does not fit the 32-bit tag array", line))
}

const (
	linesPerPage = 64 // 4KB page / 64B line
	recentCap    = 512
)

// getMSHR takes an MSHR from the free list, making it its request's Done
// handler on first creation.
func (c *Cache) getMSHR(line uint64, dirty bool) *mshr {
	m := c.freeM
	if m == nil {
		m = &mshr{c: c}
		m.req.Done = m
	} else {
		c.freeM = m.next
		m.next = nil
	}
	m.line, m.dirty = line, dirty
	m.req.Line, m.req.Write = line, false
	return m
}

// putMSHR returns an MSHR to the free list. The waiters slice keeps its
// capacity (cleared to length 0 by fill), so merges re-use it.
func (c *Cache) putMSHR(m *mshr) {
	m.next = c.freeM
	c.freeM = m
}

// noteMiss records a demand miss for stream detection and reports whether
// the miss extends an ascending stream. The recency window is a FIFO over
// the last recentCap demand misses; insertion precedes eviction, matching
// the pre-ring slice semantics (append, then drop the front past cap) so
// duplicate misses age out on their oldest entry.
func (c *Cache) noteMiss(line uint64) bool {
	a := c.recent.Has(line - 1)
	b := c.recent.Has(line - 2)
	c.recent.Put(line, struct{}{})
	if c.recentN == recentCap {
		old := c.recentRing[c.recentHead]
		c.recent.Delete(old)
		c.recentRing[c.recentHead] = line // the evicted slot becomes the newest
		c.recentHead = (c.recentHead + 1) % recentCap
	} else {
		c.recentRing[(c.recentHead+c.recentN)%recentCap] = line
		c.recentN++
	}
	return a || b
}

// prefetch fetches the next-degree lines of line's page that are neither
// cached nor outstanding. Prefetch fills install clean and wake no one.
func (c *Cache) prefetch(line uint64) {
	page := line / linesPerPage
	for d := 1; d <= c.cfg.PrefetchDegree; d++ {
		pl := line + uint64(d)
		if pl/linesPerPage != page {
			return // stream prefetchers stop at the page boundary
		}
		if c.out.Has(pl) {
			continue
		}
		if c.lookup(pl) {
			continue
		}
		m := c.getMSHR(pl, false)
		c.out.Put(pl, m)
		c.Stats.Prefetches++
		c.mc.Submit(&m.req)
	}
}

// lookup reports whether line is present, without touching LRU state.
func (c *Cache) lookup(line uint64) bool {
	t := c.tag(line)
	base := int(line&c.setMask) * c.ways
	for _, tg := range c.tags[base : base+c.ways] {
		if tg == t {
			return true
		}
	}
	return false
}

// Warm installs a line without any DRAM traffic, for pre-populating the
// cache to its steady-state occupancy before measurement (short simulation
// slices would otherwise see no capacity evictions and no writebacks). The
// line becomes its set's most recent; a resident copy keeps its way and
// takes the new dirty bit, and a full set silently drops its least recent.
func (c *Cache) Warm(line uint64, dirty bool) {
	t := c.tag(line)
	s := line & c.setMask
	base := int(s) * c.ways
	st := &c.sets[s]
	c.mark(s)
	for w, tg := range c.tags[base : base+int(st.n)] {
		if tg == t {
			st.touch(w)
			st.setDirty(w, dirty)
			return
		}
	}
	w, _ := st.victim(c.ways)
	c.tags[base+w] = t
	st.setDirty(w, dirty)
}

// WarmState is a saved copy of a cache's way state: its tag and set
// arrays. Beside that pristine copy it keeps a working copy, which LoadWarm
// points a cache at: the cache marks the sets it changes there, so the next
// LoadWarm of the same state restores only those. One value is reused
// across SaveWarm calls; its buffers grow to the largest cache it has
// saved. A cache remembers the state it runs on by address, so a WarmState
// must not be copied once used, and it serves one cache at a time.
type WarmState struct {
	tags []uint32
	sets []set
	work wayArrays
}

// SaveWarm copies c's way state into s, for LoadWarm to restore later
// without recomputing it. Only the way arrays are saved: the MSHRs, the
// stream detector and the stats are run state that Reset and LoadWarm
// clear anyway. The cache keeps running on the arrays it had.
func (c *Cache) SaveWarm(s *WarmState) {
	s.tags = append(s.tags[:0], c.tags...)
	s.sets = append(s.sets[:0], c.sets...)
	if c.owner == s {
		clear(c.touched) // c runs on s's working copy, which is what was saved
	} else {
		s.work.markAll()
	}
}

// LoadWarm is Reset for a run that starts from a saved warm: it rebinds c
// to mc and clears its run state as Reset does, but instead of wiping the
// way arrays it restores the state s holds, exactly as the SaveWarm that
// filled it found it. It points c at s's working copy and restores the sets
// marked there since s was last loaded or saved, or copies the whole state
// when more than an eighth are marked (as in a new working copy). It panics
// if s was saved from a cache with a different set count or associativity.
func (c *Cache) LoadWarm(s *WarmState, mc *memctrl.Controller) {
	if len(s.tags) != len(c.tags) || len(s.sets) != len(c.sets) {
		panic(fmt.Sprintf("cache: LoadWarm of a %d-set, %d-slot state into a %d-set, %d-slot cache",
			len(s.sets), len(s.tags), len(c.sets), len(c.tags)))
	}
	c.resetMeta(mc)
	if len(s.work.tags) != len(c.tags) || len(s.work.sets) != len(c.sets) {
		s.work = newWayArrays(len(c.sets), c.ways)
	}
	bulk := len(c.sets) / rollbackBulk
	if c.owner != s && s.work.marked() > bulk && c.marked() > bulk {
		// The arrays c ran on need a whole copy as much as s's do, and they
		// are still in the host's caches: copy into them instead, and give
		// their owner s's old copy, every set marked. (c's own arrays from
		// New have no owner, and s's old copy is dropped.)
		if c.owner != nil {
			c.owner.work = s.work
			c.owner.work.markAll()
		}
		s.work = c.wayArrays
		s.work.markAll()
	}
	s.work.rollback(s.tags, s.sets)
	c.wayArrays, c.owner = s.work, s
}

// Reset empties the cache and rebinds it to mc (typically a freshly built
// controller on the same event queue), keeping the tag and set arrays and
// the MSHR pool so a reused machine starts its next run without
// reallocating. MSHRs still outstanding when the previous run ended
// (in-flight prefetch fills cut short by run completion) are reclaimed into
// the free list — their DRAM requests died with the previous controller.
func (c *Cache) Reset(mc *memctrl.Controller) {
	c.wipeArrays()
	c.resetMeta(mc)
}

// wipeArrays empties every way slot of every set.
func (c *Cache) wipeArrays() {
	c.markAll()
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.sets {
		c.sets[i] = set{order: emptyOrder}
	}
}

// resetMeta clears the run state Reset and LoadWarm share, everything but
// the way arrays: the MSHRs, the prefetcher's recent-miss filter, and the
// stats.
func (c *Cache) resetMeta(mc *memctrl.Controller) {
	c.mc = mc
	c.out.Drain(func(_ uint64, m *mshr) {
		m.waiters = m.waiters[:0]
		m.dirty = false
		c.putMSHR(m)
	})
	c.recent.Clear()
	c.recentHead, c.recentN = 0, 0
	c.Stats = Stats{}
}

// Occupancy returns the number of valid lines currently installed. It is a
// full scan intended for tests and warm-up verification, not hot paths.
func (c *Cache) Occupancy() int {
	n := 0
	for _, st := range c.sets {
		n += int(st.n)
	}
	return n
}

// Access performs one 64B access at the current simulation time. For loads,
// done is dispatched once when the data is available (hit latency or DRAM
// fill); stores may pass nil (they retire from a store buffer).
func (c *Cache) Access(line uint64, write bool, done event.Handler) {
	t := c.tag(line)
	s := line & c.setMask
	base := int(s) * c.ways
	for w, tg := range c.tags[base : base+c.ways] {
		if tg == t {
			c.Stats.Hits++
			c.mark(s)
			st := &c.sets[s]
			st.touch(w)
			if write {
				st.dirty |= 1 << w
			}
			if done != nil {
				c.q.Schedule(c.q.Now()+c.cfg.HitLatency, done)
			}
			return
		}
	}
	c.Stats.Misses++

	// Merge with an outstanding fill for the same line.
	if m, ok := c.out.Get(line); ok {
		c.Stats.Merged++
		if write {
			m.dirty = true
		}
		if done != nil {
			m.waiters = append(m.waiters, done)
		}
		return
	}

	m := c.getMSHR(line, write)
	if done != nil {
		m.waiters = append(m.waiters, done)
	}
	c.out.Put(line, m)
	c.mc.Submit(&m.req)
	if c.cfg.PrefetchDegree > 0 && c.noteMiss(line) {
		c.prefetch(line)
	}
}

// fill installs the returned line, evicting LRU (writing back if dirty) and
// waking all merged waiters, then recycles the MSHR.
func (c *Cache) fill(m *mshr, now clk.Tick) {
	line := m.line
	c.out.Delete(line)

	s := line & c.setMask
	base := int(s) * c.ways
	st := &c.sets[s]
	c.mark(s)
	v, full := st.victim(c.ways)
	if full && st.dirty>>v&1 != 0 {
		c.Stats.Writebacks++
		c.mc.SubmitWrite(uint64(c.tags[base+v])<<c.setShift | s)
	}
	c.tags[base+v] = c.tag(line)
	st.setDirty(v, m.dirty)

	for _, w := range m.waiters {
		if c.cfg.MissExtra > 0 {
			c.q.Schedule(now+c.cfg.MissExtra, w)
		} else {
			w.OnEvent(now)
		}
	}
	m.waiters = m.waiters[:0]
	c.putMSHR(m)
}

// MissRate returns misses / (hits + misses).
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}
