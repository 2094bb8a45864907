package cache

import (
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

// invalidTag marks an empty way slot. Real line addresses are physical
// footprint offsets, far below the sentinel.
const invalidTag = ^uint64(0)

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

// Cache is a shared, single-ported (contention-free) LLC model.
//
// Way state is stored structure-of-arrays: one flat contiguous tag array
// (16 ways x 8B = two cache lines per set) scanned on every access, with
// the LRU stamps and dirty bits in parallel arrays touched only on hit or
// fill. Keeping the scanned bytes minimal and indexable without pointer
// chasing is worth ~2x on the hit path over the former []way-per-set
// layout.
type Cache struct {
	cfg     Config
	tags    []uint64 // line address per way slot, invalidTag when empty
	lru     []uint64
	dirty   []bool
	ways    int
	setMask uint64
	mc      *memctrl.Controller
	q       *event.Queue
	tick    uint64
	// stale marks the way arrays as still holding a previous run's state:
	// ResetForWarm defers the full wipe to the WarmAll that follows it (see
	// warmFresh), and WarmAll's non-covering paths pay it on entry.
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

// New builds the cache in front of mc.
func New(cfg Config, mc *memctrl.Controller, q *event.Queue) *Cache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if numSets&(numSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	tags := make([]uint64, numSets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	return &Cache{
		cfg:     cfg,
		tags:    tags,
		lru:     make([]uint64, numSets*cfg.Ways),
		dirty:   make([]bool, numSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		mc:      mc,
		q:       q,
	}
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
	base := int(line&c.setMask) * c.ways
	for _, tg := range c.tags[base : base+c.ways] {
		if tg == line {
			return true
		}
	}
	return false
}

// Warm installs a line without any DRAM traffic, for pre-populating the
// cache to its steady-state occupancy before measurement (short simulation
// slices would otherwise see no capacity evictions and no writebacks).
func (c *Cache) Warm(line uint64, dirty bool) {
	c.tick++
	c.warmAt(line, dirty, c.tick)
}

// warmAt installs line with an explicit LRU stamp. It touches only line's
// set, which is what lets WarmAll apply entries set-major and still leave
// the serial loop's state: the stamp of warm i is always i+1 regardless of
// the order sets are visited in.
func (c *Cache) warmAt(line uint64, dirty bool, tick uint64) {
	base := int(line&c.setMask) * c.ways
	// One pass: stop at the first free way or duplicate (in way order, as
	// installation always has), tracking the LRU victim for the full-set
	// case along the way. Warming touches every line slot of the cache, so
	// this scan is the dominant cost of prewarm.
	victim := base
	for i := base; i < base+c.ways; i++ {
		if tg := c.tags[i]; tg == invalidTag || tg == line {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.tags[victim] = line
	c.lru[victim] = tick
	c.dirty[victim] = dirty
}

// WarmPlan is the reusable scratch a set-major WarmAll pass works in: the
// per-set bucket boundaries and the entry permutation. One plan serves any
// number of WarmAll calls (across caches and runs); its arrays grow
// to the largest warm it has applied and are then reused allocation-free.
type WarmPlan struct {
	starts []int32   // starts[s]..starts[s+1] bounds set s's entries in order
	ents   []warmEnt // entries, grouped by set, input order within a set
	next   []int32   // scatter cursor, one per set

	// warmFresh (the packed two-level radix path) scratch: coarse bucket
	// bounds and cursors, the packed entry permutation, and the per-bucket
	// second-level bounds/cursors/entries. The second-level arrays are
	// bucket-sized, so the whole level-2 partition runs in L1.
	coarse    []int32
	cur       []int32
	packed    []uint64
	setStarts []int32
	setCur    []int32
	setBuf    []uint64
}

// warmEnt is one planned warm: the line, its input position i (the stamp is
// tick+i+1, and per-set input order is i order), and the dirty bit.
type warmEnt struct {
	line  uint64
	idx   int32
	dirty bool
}

// WarmAll installs lines[i] (dirty[i]) for all i, leaving state equivalent
// to len(lines) successive Warm calls: the same lines survive in each set
// with the same LRU stamps and dirty bits, and the final tick matches
// (pinned by TestWarmAllMatchesSerial). Surviving lines may sit in
// different ways within their set than the serial replay would leave them,
// which no cache observable depends on — hits scan every way, and
// replacement compares stamps, which are unique (TestWarmAllEquivalent
// pins the behavioral equivalence). Unlike the serial loop, which
// hops to a random set per entry and pays a cache miss on nearly every
// warmAt, WarmAll buckets the entries by set first and then applies them
// set-major: each set's tag/LRU/dirty lines are touched once, stay resident
// while its handful of entries apply, and the sweep over sets is sequential.
// This is the simulator's prewarm path: a machine reuses one plan across
// its runs.
func (c *Cache) WarmAll(lines []uint64, dirty []bool, plan *WarmPlan) {
	if len(lines) != len(dirty) {
		panic("cache: WarmAll lines/dirty length mismatch")
	}
	numSets := int(c.setMask) + 1
	if c.tick == 0 && numSets >= warmCoarse && len(lines) <= 1<<24 {
		// The packed path needs every line to fit its 39 bit field; one OR
		// over the input checks all of them at streaming speed.
		var orAll uint64
		for _, line := range lines {
			orAll |= line
		}
		if orAll < 1<<39 {
			c.warmFresh(lines, dirty, plan)
			return
		}
	}
	if c.stale {
		// ResetForWarm deferred the array wipe betting on warmFresh covering
		// every way; this fallback path patches only what it installs, so it
		// must pay the wipe now.
		c.wipeArrays()
	}
	if cap(plan.starts) < numSets+1 {
		plan.starts = make([]int32, numSets+1)
		plan.next = make([]int32, numSets)
	}
	starts := plan.starts[:numSets+1]
	next := plan.next[:numSets]
	for i := range starts {
		starts[i] = 0
	}
	if cap(plan.ents) < len(lines) {
		plan.ents = make([]warmEnt, len(lines))
	}
	ents := plan.ents[:len(lines)]

	// Counting sort by set: count, prefix-sum, scatter. The scatter is the
	// only random-access pass, and it writes one 16-byte entry per warm
	// instead of read-modify-writing warmAt's several lines of tag/LRU
	// state; the apply below then reads the plan strictly sequentially.
	for _, line := range lines {
		starts[line&c.setMask+1]++
	}
	for s := 0; s < numSets; s++ {
		starts[s+1] += starts[s]
		next[s] = starts[s]
	}
	for i, line := range lines {
		s := line & c.setMask
		ents[next[s]] = warmEnt{line: line, idx: int32(i), dirty: dirty[i]}
		next[s]++
	}

	// Set-major apply with the serial stamps: warm i always lands with
	// stamp tick+i+1, and a set's entries apply in input order, which is
	// all warmAt's outcome depends on (it touches only the addressed set).
	base := c.tick
	if base == 0 {
		// Empty cache (fresh or Reset — the prewarm case): LRU warming of
		// an empty set leaves exactly the last `ways` distinct lines
		// touched, each with the stamp and dirty bit of its last touch, so
		// a single backward scan per set installs the final state directly
		// instead of replaying every eviction through warmAt. Lines land in
		// different ways than the serial replay would pick, which is
		// unobservable: hits scan every way, and replacement decisions
		// compare stamps, which are unique (see TestWarmAllEquivalent).
		for s := 0; s < numSets; s++ {
			lo, hi := starts[s], starts[s+1]
			if lo == hi {
				continue
			}
			bws := s * c.ways
			n := 0
			for k := hi - 1; k >= lo; k-- {
				e := &ents[k]
				dup := false
				for w := 0; w < n; w++ {
					if c.tags[bws+w] == e.line {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				c.tags[bws+n] = e.line
				c.lru[bws+n] = uint64(e.idx) + 1
				c.dirty[bws+n] = e.dirty
				n++
				if n == c.ways {
					break // everything earlier in the set was evicted
				}
			}
		}
	} else {
		for k := range ents {
			e := &ents[k]
			c.warmAt(e.line, e.dirty, base+uint64(e.idx)+1)
		}
	}
	c.tick = base + uint64(len(lines))
}

// warmCoarse is warmFresh's first-level radix width. 256 write streams keep
// every stream head L1-resident during the scatter, and each second-level
// bucket (numSets/256 sets) is small enough to partition entirely in cache.
const warmCoarse = 256

// warmFresh is WarmAll's empty-cache path (fresh or ResetForWarm — the
// simulator's prewarm): LRU warming of an empty set leaves exactly the last
// `ways` distinct lines touched, each with the stamp and dirty bit of its
// last touch, so per set a single backward scan installs the final state
// directly instead of replaying every eviction through warmAt. Lines land in
// different ways than the serial replay would pick, which is unobservable:
// hits scan every way, and replacement decisions compare stamps, which are
// unique (see TestWarmAllEquivalent).
//
// Entries are packed into one word each — line<<25 | idx<<1 | dirty — and
// partitioned set-major in two radix levels, so every pass is either a
// sequential stream or an L1-resident scatter. The apply clears the ways it
// does not install, leaving every set exactly as a full Reset plus warm
// would, which is what lets ResetForWarm skip its array wipe.
func (c *Cache) warmFresh(lines []uint64, dirty []bool, plan *WarmPlan) {
	numSets := int(c.setMask) + 1
	spc := numSets / warmCoarse // sets per coarse bucket; both powers of two
	shift := uint(bits.TrailingZeros(uint(spc)))
	setShift := uint(bits.TrailingZeros(uint(numSets)))
	if cap(plan.coarse) < warmCoarse+1 {
		plan.coarse = make([]int32, warmCoarse+1)
		plan.cur = make([]int32, warmCoarse)
		plan.setStarts = make([]int32, spc+1)
		plan.setCur = make([]int32, spc)
	}
	coarse := plan.coarse[:warmCoarse+1]
	cur := plan.cur[:warmCoarse]
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
	// the tag/LRU/dirty arrays strictly forward.
	for _, line := range lines {
		coarse[(line&c.setMask)>>shift+1]++
	}
	maxBucket := int32(0)
	for b := 0; b < warmCoarse; b++ {
		if coarse[b+1] > maxBucket {
			maxBucket = coarse[b+1]
		}
		coarse[b+1] += coarse[b]
		cur[b] = coarse[b]
	}
	for i, line := range lines {
		b := (line & c.setMask) >> shift
		p := line<<25 | uint64(i)<<1
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
	for b := 0; b < warmCoarse; b++ {
		ents := packed[coarse[b]:coarse[b+1]]
		baseSet := b * spc
		for i := range setStarts {
			setStarts[i] = 0
		}
		for _, p := range ents {
			setStarts[int(p>>25&c.setMask)-baseSet+1]++
		}
		for s := 0; s < spc; s++ {
			setStarts[s+1] += setStarts[s]
			setCur[s] = setStarts[s]
		}
		setBuf := plan.setBuf[:len(ents)]
		for _, p := range ents {
			s := int(p>>25&c.setMask) - baseSet
			setBuf[setCur[s]] = p
			setCur[s]++
		}
		for s := 0; s < spc; s++ {
			bws := (baseSet + s) * c.ways
			n := 0
			// sig is a one-word Bloom filter over the installed lines' low
			// tag bits: a clear bit proves the line is new, skipping the
			// duplicate scan for the common case; a set bit (≈n/64 false
			// positive rate) falls back to the exact scan.
			var sig uint64
			for k := setStarts[s+1] - 1; k >= setStarts[s]; k-- {
				p := setBuf[k]
				line := p >> 25
				bit := uint64(1) << (line >> setShift & 63)
				if sig&bit != 0 {
					dup := false
					for w := 0; w < n; w++ {
						if c.tags[bws+w] == line {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
				}
				sig |= bit
				c.tags[bws+n] = line
				c.lru[bws+n] = (p>>1)&(1<<24-1) + 1
				c.dirty[bws+n] = p&1 != 0
				n++
				if n == c.ways {
					break // everything earlier in the set was evicted
				}
			}
			for w := n; w < c.ways; w++ {
				c.tags[bws+w] = invalidTag
				c.lru[bws+w] = 0
				c.dirty[bws+w] = false
			}
		}
	}
	c.tick = uint64(len(lines))
	c.stale = false
}

// Reset empties the cache and rebinds it to mc (typically a freshly built
// controller on the same event queue), keeping the big SoA arrays and the
// MSHR pool so a reused machine starts its next run without reallocating.
// MSHRs still outstanding when the previous run ended (in-flight prefetch
// fills cut short by run completion) are reclaimed into the free list —
// their DRAM requests died with the previous controller.
func (c *Cache) Reset(mc *memctrl.Controller) {
	c.wipeArrays()
	c.resetMeta(mc)
}

// ResetForWarm is Reset for a caller that immediately follows with a
// full-coverage WarmAll (the simulator's prewarm): the wipe of the big
// tag/LRU/dirty arrays — a pass over the whole cache — is skipped, because
// warmFresh rewrites every way of every set anyway. Until that WarmAll runs
// the arrays hold the previous run's state; WarmAll's fallback paths detect
// this (c.stale) and pay the deferred wipe, so the combination is correct
// for every input, just fastest on the warmFresh path.
func (c *Cache) ResetForWarm(mc *memctrl.Controller) {
	c.stale = true
	c.resetMeta(mc)
}

// wipeArrays empties every way slot of every set.
func (c *Cache) wipeArrays() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.lru[i] = 0
		c.dirty[i] = false
	}
	c.stale = false
}

// resetMeta clears everything Reset owns except the way arrays: the warm
// clock, the MSHRs, the prefetcher's recent-miss filter, and the stats.
func (c *Cache) resetMeta(mc *memctrl.Controller) {
	c.tick = 0
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
	for _, tg := range c.tags {
		if tg != invalidTag {
			n++
		}
	}
	return n
}

// Access performs one 64B access at the current simulation time. For loads,
// done is invoked when the data is available (hit latency or DRAM fill);
// stores may pass nil (they retire from a store buffer).
func (c *Cache) Access(line uint64, write bool, done func(clk.Tick)) {
	base := int(line&c.setMask) * c.ways
	c.tick++
	for i, tg := range c.tags[base : base+c.ways] {
		if tg == line {
			c.Stats.Hits++
			c.lru[base+i] = c.tick
			if write {
				c.dirty[base+i] = true
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

	base := int(line&c.setMask) * c.ways
	victim := base
	for i := base + 1; i < base+c.ways; i++ {
		if c.tags[i] == invalidTag {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	if c.tags[victim] != invalidTag && c.dirty[victim] {
		c.Stats.Writebacks++
		c.mc.SubmitWrite(c.tags[victim])
	}
	c.tick++
	c.tags[victim] = line
	c.lru[victim] = c.tick
	c.dirty[victim] = m.dirty

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
