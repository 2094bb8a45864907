package cache

import (
	"fmt"
	"math/bits"

	"autorfm/internal/clk"
	"autorfm/internal/event"
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
	// 0 disables.
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

// mshr is one outstanding fill: the merged waiters, the DRAM request it
// rides on, and the fill continuation. MSHRs are pooled; the request's
// Done callback is bound once at creation and re-armed by resetting line,
// so a steady-state miss allocates nothing.
type mshr struct {
	c       *Cache
	line    uint64
	dirty   bool // a write was merged while the fill was outstanding
	waiters []func(clk.Tick)
	req     memctrl.Request
	next    *mshr // free-list link
}

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
type Cache struct {
	cfg      Config
	tags     []uint32 // tag per way slot, invalidTag when empty
	sets     []set
	ways     int
	setMask  uint64
	setShift uint // log2 of the set count: line == tag<<setShift | set
	mc       *memctrl.Controller
	q        *event.Queue
	// fresh marks an empty cache, nothing installed since the last reset:
	// WarmAll's precondition for warmFresh.
	fresh bool
	// stale marks the way state as still holding a previous run's lines:
	// ResetForWarm defers the full wipe to the WarmAll that follows it (see
	// warmFresh), and Warm pays it on entry.
	stale bool
	out   mshrTable
	freeM *mshr

	// Stream-detector state: the set of recent demand-miss lines, bounded
	// by a FIFO ring. A miss to L with L-1 or L-2 recently missed is
	// treated as part of an ascending stream.
	recent     lineSet
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
		cfg:      cfg,
		tags:     make([]uint32, numSets*cfg.Ways),
		sets:     make([]set, numSets),
		ways:     cfg.Ways,
		setMask:  uint64(numSets - 1),
		setShift: uint(bits.TrailingZeros(uint(numSets))),
		mc:       mc,
		q:        q,
		fresh:    true,
	}
	c.wipeArrays()
	return c
}

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

// getMSHR takes an MSHR from the free list, binding its fill callback on
// first creation.
func (c *Cache) getMSHR(line uint64, dirty bool) *mshr {
	m := c.freeM
	if m == nil {
		m = &mshr{c: c}
		m.req.Done = func(now clk.Tick) { m.c.fill(m, now) }
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
	a := c.recent.has(line - 1)
	b := c.recent.has(line - 2)
	c.recent.add(line)
	if c.recentN == recentCap {
		old := c.recentRing[c.recentHead]
		c.recent.del(old)
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
		if c.out.get(pl) != nil {
			continue
		}
		if c.lookup(pl) {
			continue
		}
		m := c.getMSHR(pl, false)
		c.out.put(m)
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
	if c.stale {
		// ResetForWarm deferred the array wipe betting on warmFresh covering
		// every way; a warm that patches only one set must pay it now.
		c.wipeArrays()
	}
	t := c.tag(line)
	s := line & c.setMask
	base := int(s) * c.ways
	st := &c.sets[s]
	c.fresh = false
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

// WarmPlan is the reusable scratch warmFresh partitions its entries in. One
// plan serves any number of WarmAll calls (across caches and runs); its
// arrays grow to the largest warm it has applied and are then reused
// allocation-free.
type WarmPlan struct {
	// Coarse bucket bounds and cursors, the packed entry permutation, and
	// the per-bucket second-level bounds/cursors/entries. The second-level
	// arrays are bucket-sized, so the whole level-2 partition runs in L1.
	coarse    []int32
	cur       []int32
	packed    []uint64
	setStarts []int32
	setCur    []int32
	setBuf    []uint64
}

// WarmAll installs lines[i] (dirty[i]) for all i, leaving the same state as
// len(lines) successive Warm calls: the same lines in each set, in the same
// recency order, with the same dirty bits (pinned by
// TestWarmAllMatchesSerial). Lines may sit in other ways of their set than
// the serial loop would give them, which nothing observable depends on
// (TestWarmAllEquivalent). The fast path is warmFresh, taken on an empty
// cache — the simulator's prewarm, where a machine reuses one plan across
// its runs; a cache already holding lines gets the serial Warm loop.
func (c *Cache) WarmAll(lines []uint64, dirty []bool, plan *WarmPlan) {
	if len(lines) != len(dirty) {
		panic("cache: WarmAll lines/dirty length mismatch")
	}
	if c.fresh {
		// warmFresh packs line<<1|dirty, and its installs skip Warm's tag
		// check; one OR over the input checks every line at streaming speed.
		var orAll uint64
		for _, line := range lines {
			orAll |= line
		}
		if orAll < 1<<63 && orAll>>c.setShift < uint64(invalidTag) {
			c.warmFresh(lines, dirty, plan)
			return
		}
	}
	for i, line := range lines {
		c.Warm(line, dirty[i])
	}
}

// warmCoarse is warmFresh's first-level radix width. 256 write streams keep
// every stream head L1-resident during the scatter, and each second-level
// bucket (numSets/256 sets) is small enough to partition entirely in cache.
const warmCoarse = 256

// warmFresh is WarmAll's empty-cache path (fresh or ResetForWarm — the
// simulator's prewarm). LRU warming of an empty set leaves exactly the last
// `ways` distinct lines touched, each with the dirty bit of its last touch,
// most recent last touched first; so per set a single backward scan installs
// the final state directly — the k-th line found goes to way k, which is
// recency position k of emptyOrder — instead of replaying every eviction.
//
// Entries are packed into one word each — line<<1 | dirty — and partitioned
// set-major in two stable radix levels, so every pass is either a
// sequential stream or an L1-resident scatter, and a set's entries keep
// their input order. The apply writes every set's record and clears the
// ways it does not install, leaving every set exactly as a full Reset plus
// warm would, which is what lets ResetForWarm skip its array wipe.
func (c *Cache) warmFresh(lines []uint64, dirty []bool, plan *WarmPlan) {
	numSets := int(c.setMask) + 1
	nb := min(warmCoarse, numSets) // coarse buckets; both powers of two
	spc := numSets / nb            // sets per coarse bucket
	shift := uint(bits.TrailingZeros(uint(spc)))
	if cap(plan.coarse) < nb+1 {
		plan.coarse = make([]int32, nb+1)
		plan.cur = make([]int32, nb)
	}
	if cap(plan.setStarts) < spc+1 {
		plan.setStarts = make([]int32, spc+1)
		plan.setCur = make([]int32, spc)
	}
	coarse := plan.coarse[:nb+1]
	cur := plan.cur[:nb]
	setStarts := plan.setStarts[:spc+1]
	setCur := plan.setCur[:spc]
	for i := range coarse {
		coarse[i] = 0
	}
	if cap(plan.packed) < len(lines) {
		plan.packed = make([]uint64, len(lines))
	}
	packed := plan.packed[:len(lines)]

	// Level 1: count, prefix-sum, scatter packed entries into coarse
	// buckets. Buckets cover contiguous set ranges, so the apply below walks
	// the tag and set arrays strictly forward.
	for _, line := range lines {
		coarse[(line&c.setMask)>>shift+1]++
	}
	maxBucket := int32(0)
	for b := 0; b < nb; b++ {
		if coarse[b+1] > maxBucket {
			maxBucket = coarse[b+1]
		}
		coarse[b+1] += coarse[b]
		cur[b] = coarse[b]
	}
	for i, line := range lines {
		b := (line & c.setMask) >> shift
		p := line << 1
		if dirty[i] {
			p |= 1
		}
		packed[cur[b]] = p
		cur[b]++
	}
	if cap(plan.setBuf) < int(maxBucket) {
		plan.setBuf = make([]uint64, maxBucket)
	}

	// Level 2, per coarse bucket: partition the bucket's entries by set
	// (everything here fits in L1), then install each set's last `ways`
	// distinct lines by backward scan and clear the ways left over.
	for b := 0; b < nb; b++ {
		ents := packed[coarse[b]:coarse[b+1]]
		baseSet := b * spc
		for i := range setStarts {
			setStarts[i] = 0
		}
		for _, p := range ents {
			setStarts[int(p>>1&c.setMask)-baseSet+1]++
		}
		for s := 0; s < spc; s++ {
			setStarts[s+1] += setStarts[s]
			setCur[s] = setStarts[s]
		}
		setBuf := plan.setBuf[:len(ents)]
		for _, p := range ents {
			s := int(p>>1&c.setMask) - baseSet
			setBuf[setCur[s]] = p
			setCur[s]++
		}
		for s := 0; s < spc; s++ {
			bws := (baseSet + s) * c.ways
			n := 0
			var mask uint16
			// sig is a one-word Bloom filter over the installed tags' low
			// bits: a clear bit proves the line is new, skipping the
			// duplicate scan for the common case; a set bit (≈n/64 false
			// positive rate) falls back to the exact scan.
			var sig uint64
			for k := setStarts[s+1] - 1; k >= setStarts[s]; k-- {
				p := setBuf[k]
				t := uint32(p >> 1 >> c.setShift)
				bit := uint64(1) << (t & 63)
				if sig&bit != 0 {
					dup := false
					for _, tg := range c.tags[bws : bws+n] {
						if tg == t {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
				}
				sig |= bit
				c.tags[bws+n] = t
				mask |= uint16(p&1) << n
				n++
				if n == c.ways {
					break // everything earlier in the set was evicted
				}
			}
			for w := n; w < c.ways; w++ {
				c.tags[bws+w] = invalidTag
			}
			c.sets[baseSet+s] = set{order: emptyOrder, dirty: mask, n: uint8(n)}
		}
	}
	c.fresh = len(lines) == 0
	c.stale = false
}

// WarmState is a saved copy of a cache's way state: the tag and set arrays
// and the flags that say how they were filled. One value is reused across
// SaveWarm calls; its buffers grow to the largest cache it has saved.
type WarmState struct {
	tags         []uint32
	sets         []set
	fresh, stale bool
}

// SaveWarm copies c's way state into s, for LoadWarm to restore later
// without recomputing it. Only the way arrays are saved: the MSHRs, the
// stream detector and the stats are run state that Reset clears anyway.
func (c *Cache) SaveWarm(s *WarmState) {
	s.tags = append(s.tags[:0], c.tags...)
	s.sets = append(s.sets[:0], c.sets...)
	s.fresh, s.stale = c.fresh, c.stale
}

// LoadWarm restores the way state s holds, exactly as the SaveWarm that
// filled it found it. It copies over every way of every set, so it may
// follow ResetForWarm as WarmAll does. It panics if s was saved from a
// cache with a different set count or associativity.
func (c *Cache) LoadWarm(s *WarmState) {
	if len(s.tags) != len(c.tags) || len(s.sets) != len(c.sets) {
		panic(fmt.Sprintf("cache: LoadWarm of a %d-set, %d-slot state into a %d-set, %d-slot cache",
			len(s.sets), len(s.tags), len(c.sets), len(c.tags)))
	}
	copy(c.tags, s.tags)
	copy(c.sets, s.sets)
	c.fresh, c.stale = s.fresh, s.stale
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

// ResetForWarm is Reset for a caller that immediately follows with a
// full-coverage WarmAll (the simulator's prewarm): the wipe of the tag and
// set arrays — a pass over the whole cache — is skipped, because warmFresh
// rewrites every way of every set anyway. Until that WarmAll runs the
// arrays hold the previous run's state; Warm, and so WarmAll's serial path,
// detects this (c.stale) and pays the deferred wipe, so the combination is
// correct for every input, just fastest on the warmFresh path.
func (c *Cache) ResetForWarm(mc *memctrl.Controller) {
	c.stale = true
	c.resetMeta(mc)
}

// wipeArrays empties every way slot of every set.
func (c *Cache) wipeArrays() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for i := range c.sets {
		c.sets[i] = set{order: emptyOrder}
	}
	c.stale = false
}

// resetMeta clears everything Reset owns except the way arrays: the MSHRs,
// the prefetcher's recent-miss filter, and the stats; the cache is empty
// from here on.
func (c *Cache) resetMeta(mc *memctrl.Controller) {
	c.fresh = true
	c.mc = mc
	c.out.drain(func(m *mshr) {
		m.waiters = m.waiters[:0]
		m.dirty = false
		c.putMSHR(m)
	})
	c.recent.clear()
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
// done is invoked when the data is available (hit latency or DRAM fill);
// stores may pass nil (they retire from a store buffer).
func (c *Cache) Access(line uint64, write bool, done func(clk.Tick)) {
	t := c.tag(line)
	s := line & c.setMask
	base := int(s) * c.ways
	for w, tg := range c.tags[base : base+c.ways] {
		if tg == t {
			c.Stats.Hits++
			st := &c.sets[s]
			st.touch(w)
			if write {
				st.dirty |= 1 << w
			}
			if done != nil {
				c.q.After(c.cfg.HitLatency, done)
			}
			return
		}
	}
	c.Stats.Misses++

	// Merge with an outstanding fill for the same line.
	if m := c.out.get(line); m != nil {
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
	c.out.put(m)
	c.mc.Submit(&m.req)
	if c.cfg.PrefetchDegree > 0 && c.noteMiss(line) {
		c.prefetch(line)
	}
}

// fill installs the returned line, evicting LRU (writing back if dirty) and
// waking all merged waiters, then recycles the MSHR.
func (c *Cache) fill(m *mshr, now clk.Tick) {
	line := m.line
	c.out.del(line)

	s := line & c.setMask
	base := int(s) * c.ways
	st := &c.sets[s]
	v, full := st.victim(c.ways)
	if full && st.dirty>>v&1 != 0 {
		c.Stats.Writebacks++
		c.mc.SubmitWrite(uint64(c.tags[base+v])<<c.setShift | s)
	}
	c.tags[base+v] = c.tag(line)
	st.setDirty(v, m.dirty)
	c.fresh = false

	for _, w := range m.waiters {
		if c.cfg.MissExtra > 0 {
			c.q.After(c.cfg.MissExtra, w)
		} else {
			w(now)
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
