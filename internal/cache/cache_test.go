package cache

import (
	"strings"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/mapping"
	"autorfm/internal/memctrl"
	"autorfm/internal/rng"
)

func newRig(t testing.TB, cfg Config) (*Cache, *memctrl.Controller, *event.Queue) {
	t.Helper()
	q := &event.Queue{}
	mc := newMC(q)
	return New(cfg, mc, q), mc, q
}

// newMC builds a memory controller on q in front of a new device.
func newMC(q *event.Queue) *memctrl.Controller {
	geo := mapping.Default()
	dev := dram.NewDevice(dram.Config{Geo: geo, Timing: clk.DDR5(), Mode: dram.ModeNone, Seed: 1})
	return memctrl.New(memctrl.Config{Timing: clk.DDR5(), Mapper: mapping.NewZen(geo)}, dev, q)
}

func smallCfg() Config {
	return Config{SizeBytes: 64 * 1024, Ways: 4, LineBytes: 64, HitLatency: clk.NS(12)}
}

func drain(q *event.Queue, mc *memctrl.Controller) {
	for q.Step() {
		if mc.Pending() == 0 && q.Len() <= 1 {
			break
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c, mc, q := newRig(t, smallCfg())
	var missDone, hitDone clk.Tick = -1, -1
	c.Access(100, false, event.Func(func(now clk.Tick) { missDone = now }))
	drain(q, mc)
	c.Access(100, false, event.Func(func(now clk.Tick) { hitDone = now }))
	start := q.Now()
	drain(q, mc)
	if c.Stats.Misses != 1 || c.Stats.Hits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if missDone < clk.DDR5().TRCD {
		t.Fatalf("miss completed at %v, too fast for DRAM", missDone)
	}
	if hitDone-start != smallCfg().HitLatency {
		t.Fatalf("hit latency = %v", hitDone-start)
	}
}

func TestMissMerging(t *testing.T) {
	c, mc, q := newRig(t, smallCfg())
	done := 0
	c.Access(55, false, event.Func(func(clk.Tick) { done++ }))
	c.Access(55, false, event.Func(func(clk.Tick) { done++ }))
	c.Access(55, false, event.Func(func(clk.Tick) { done++ }))
	drain(q, mc)
	if done != 3 {
		t.Fatalf("waiters completed = %d, want 3", done)
	}
	if c.Stats.Merged != 2 {
		t.Fatalf("Merged = %d, want 2", c.Stats.Merged)
	}
	// Only one DRAM read despite three misses.
	if mc.Stats.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", mc.Stats.Reads)
	}
}

// TestMSHRReuseWakesOwnWaiters guards the pooled MSHR, which is its DRAM
// request's Done handler: reused for another line after its fill, it wakes
// only the waiters merged into the fill it now serves, each exactly once.
func TestMSHRReuseWakesOwnWaiters(t *testing.T) {
	c, mc, q := newRig(t, smallCfg())
	woke := map[string]int{}
	waiter := func(name string) event.Handler {
		return event.Func(func(clk.Tick) { woke[name]++ })
	}
	c.Access(100, false, waiter("a1"))
	c.Access(100, false, waiter("a2"))
	first, _ := c.out.Get(100)
	drain(q, mc)
	if woke["a1"] != 1 || woke["a2"] != 1 || len(woke) != 2 {
		t.Fatalf("after the first fill: woke %v", woke)
	}
	c.Access(300, false, waiter("b"))
	if m, _ := c.out.Get(300); m != first {
		t.Fatal("the second miss did not reuse the first fill's MSHR; the test does not reach reuse")
	}
	drain(q, mc)
	if woke["a1"] != 1 || woke["a2"] != 1 || woke["b"] != 1 || len(woke) != 3 {
		t.Fatalf("after the reused MSHR's fill: woke %v, want a1, a2 and b once each", woke)
	}
	if mc.Stats.Reads != 2 {
		t.Fatalf("DRAM reads = %d, want 2", mc.Stats.Reads)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 64, Ways: 1, LineBytes: 64, HitLatency: clk.NS(12)} // 64 direct-mapped sets
	c, mc, q := newRig(t, cfg)
	// Write line 0 (set 0), then read line 64 (set 0 too: 64 sets, line
	// 64 & 63 == 0): evicts dirty line 0 → writeback.
	c.Access(0, true, nil)
	drain(q, mc)
	c.Access(64, false, nil)
	drain(q, mc)
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	if mc.Stats.Writes != 1 {
		t.Fatalf("DRAM writes = %d, want 1", mc.Stats.Writes)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 64, Ways: 1, LineBytes: 64, HitLatency: clk.NS(12)}
	c, mc, q := newRig(t, cfg)
	c.Access(0, false, nil)
	drain(q, mc)
	c.Access(64, false, nil)
	drain(q, mc)
	if c.Stats.Writebacks != 0 {
		t.Fatalf("Writebacks = %d, want 0 for clean eviction", c.Stats.Writebacks)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, Ways: 2, LineBytes: 64, HitLatency: clk.NS(12)} // 1 set, 2 ways
	c, mc, q := newRig(t, cfg)
	c.Access(10, false, nil)
	drain(q, mc)
	c.Access(20, false, nil)
	drain(q, mc)
	c.Access(10, false, nil) // touch 10 → 20 is LRU
	drain(q, mc)
	c.Access(30, false, nil) // evicts 20
	drain(q, mc)
	c.Access(10, false, nil) // must still hit
	drain(q, mc)
	if c.Stats.Hits != 2 {
		t.Fatalf("Hits = %d, want 2 (10 touched twice)", c.Stats.Hits)
	}
	c.Access(20, false, nil) // 20 was evicted → miss
	drain(q, mc)
	if c.Stats.Misses != 4 {
		t.Fatalf("Misses = %d, want 4", c.Stats.Misses)
	}
}

func TestWriteAllocateFetchesLine(t *testing.T) {
	c, mc, q := newRig(t, smallCfg())
	c.Access(77, true, nil) // store miss → read-for-ownership fill
	drain(q, mc)
	if mc.Stats.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (write-allocate)", mc.Stats.Reads)
	}
	// The merged-dirty state must survive: a later eviction writes back.
	if got := c.Stats.Misses; got != 1 {
		t.Fatalf("Misses = %d", got)
	}
}

func TestMergedWriteMarksDirty(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 64, Ways: 1, LineBytes: 64, HitLatency: clk.NS(12)}
	c, mc, q := newRig(t, cfg)
	c.Access(0, false, nil) // read miss outstanding
	c.Access(0, true, nil)  // write merges into the fill
	drain(q, mc)
	c.Access(64, false, nil) // evict line 0 — must write back
	drain(q, mc)
	if c.Stats.Writebacks != 1 {
		t.Fatal("merged write did not mark the line dirty")
	}
}

func TestMissRate(t *testing.T) {
	s := Stats{Hits: 75, Misses: 25}
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v", got)
	}
	var zero Stats
	if zero.MissRate() != 0 {
		t.Fatal("zero MissRate != 0")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	if sets != 8192 {
		t.Fatalf("default LLC has %d sets, want 8192", sets)
	}
}

func prefCfg() Config {
	cfg := smallCfg()
	cfg.PrefetchDegree = 8
	return cfg
}

// TestStreamPrefetcherFetchesAhead: two sequential misses arm the detector;
// the next miss triggers prefetches, which later accesses hit.
func TestStreamPrefetcherFetchesAhead(t *testing.T) {
	c, mc, q := newRig(t, prefCfg())
	for line := uint64(1000); line < 1003; line++ {
		c.Access(line, false, nil)
		drain(q, mc)
	}
	if c.Stats.Prefetches == 0 {
		t.Fatal("detected stream issued no prefetches")
	}
	// The prefetched lines must now hit.
	hitsBefore := c.Stats.Hits
	for line := uint64(1003); line < 1003+4; line++ {
		c.Access(line, false, nil)
		drain(q, mc)
	}
	if c.Stats.Hits < hitsBefore+3 {
		t.Fatalf("prefetched lines did not hit: hits %d→%d", hitsBefore, c.Stats.Hits)
	}
}

// TestPrefetcherStopsAtPageBoundary: stream prefetchers must not cross the
// 4KB page (physical contiguity is not guaranteed beyond it).
func TestPrefetcherStopsAtPageBoundary(t *testing.T) {
	c, mc, q := newRig(t, prefCfg())
	// Arm the detector right at the end of a page.
	base := uint64(64*100 + 60) // line 60 of page 100
	for _, l := range []uint64{base, base + 1, base + 2} {
		c.Access(l, false, nil)
		drain(q, mc)
	}
	// Lines of the next page must not have been prefetched.
	miss := c.Stats.Misses
	c.Access(64*101, false, nil) // first line of page 101
	drain(q, mc)
	if c.Stats.Misses != miss+1 {
		t.Fatal("prefetcher crossed the page boundary")
	}
}

// TestRandomMissesDontPrefetch: isolated misses (no ascending neighbour in
// the recent-miss window) must not trigger prefetches — this is what keeps
// GAP-style random traffic unpolluted.
func TestRandomMissesDontPrefetch(t *testing.T) {
	c, mc, q := newRig(t, prefCfg())
	for i := 0; i < 50; i++ {
		c.Access(uint64(i*7919+13), false, nil) // scattered lines
		drain(q, mc)
	}
	if c.Stats.Prefetches != 0 {
		t.Fatalf("random misses triggered %d prefetches", c.Stats.Prefetches)
	}
}

// TestPrefetchDedup: prefetching must skip lines already cached or already
// being fetched.
func TestPrefetchDedup(t *testing.T) {
	c, mc, q := newRig(t, prefCfg())
	// Pre-install a line in the middle of the upcoming prefetch window.
	c.Warm(2005, false)
	for _, l := range []uint64{2000, 2001, 2002} {
		c.Access(l, false, nil)
	}
	drain(q, mc)
	// 2005 was cached: reads must be (3 demand + degree-1 prefetches at
	// most), never refetching 2005.
	if got := mc.Stats.Reads; got > 3+8 {
		t.Fatalf("reads = %d, dedup failed", got)
	}
	hits := c.Stats.Hits
	c.Access(2005, false, nil)
	drain(q, mc)
	if c.Stats.Hits != hits+1 {
		t.Fatal("pre-installed line was evicted/refetched by prefetch")
	}
}

// TestWarmEvictsLRUWhenFull exercises the silent-replacement path.
func TestWarmEvictsLRUWhenFull(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, Ways: 2, LineBytes: 64, HitLatency: clk.NS(12)}
	c, mc, q := newRig(t, cfg)
	c.Warm(0, false)
	c.Warm(1, true)
	c.Warm(2, true) // evicts line 0 (LRU), silently
	c.Access(1, false, nil)
	c.Access(2, false, nil)
	drain(q, mc)
	if c.Stats.Hits != 2 {
		t.Fatalf("warmed lines not resident: hits=%d", c.Stats.Hits)
	}
	if c.Stats.Writebacks != 0 {
		t.Fatal("Warm emitted writebacks")
	}
}

// TestMissExtraDelaysFillOnly: the fixed on-chip miss cost applies to the
// requester's completion, not to hits.
func TestMissExtraDelaysFillOnly(t *testing.T) {
	cfg := smallCfg()
	cfg.MissExtra = clk.NS(50)
	c, mc, q := newRig(t, cfg)
	var missDone clk.Tick
	c.Access(42, false, event.Func(func(now clk.Tick) { missDone = now }))
	drain(q, mc)
	tm := clk.DDR5()
	minDRAM := tm.TRCD + tm.TCL + tm.TBURST
	if missDone < minDRAM+cfg.MissExtra {
		t.Fatalf("miss completed at %v, want ≥ %v", missDone, minDRAM+cfg.MissExtra)
	}
	start := q.Now()
	var hitDone clk.Tick
	c.Access(42, false, event.Func(func(now clk.Tick) { hitDone = now }))
	drain(q, mc)
	if hitDone-start != cfg.HitLatency {
		t.Fatalf("hit paid %v, want bare hit latency", hitDone-start)
	}
}

// TestNewRejectsUnsupportedWays: the packed per-set recency order has 16
// slots, so New must refuse anything outside 1..16 ways up front.
func TestNewRejectsUnsupportedWays(t *testing.T) {
	for _, ways := range []int{0, -1, 17, 32} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "ways") {
					t.Errorf("New(Ways=%d) panic = %q, want a message naming the ways", ways, msg)
				}
			}()
			New(Config{SizeBytes: 64 * 64 * 32, Ways: ways, LineBytes: 64}, nil, &event.Queue{})
		}()
	}
	for _, ways := range []int{1, 16} {
		New(Config{SizeBytes: 64 * 64 * ways, Ways: ways, LineBytes: 64}, nil, &event.Queue{})
	}
}

// TestLineBeyondTagPanics: tags are 32-bit, so a line whose tag would not
// fit must panic instead of aliasing another line.
func TestLineBeyondTagPanics(t *testing.T) {
	c, _, _ := newRig(t, smallCfg())
	first := uint64(invalidTag) << c.setShift // the first line whose tag does not fit
	c.Warm(first-1, false)
	if c.Occupancy() != 1 {
		t.Fatal("highest in-range line not installed")
	}
	for name, op := range map[string]func(){
		"Access": func() { c.Access(first, false, nil) },
		"Warm":   func() { c.Warm(first, false) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "tag") {
					t.Errorf("%s of a line past the tag range: panic = %q", name, msg)
				}
			}()
			op()
		}()
	}
}

// BenchmarkCacheAccess times the LLC's own work per access at the default
// geometry, on a cache warmed full: "hit" probes resident lines in random
// order; "miss-fill" probes new lines and installs each one as its DRAM
// fill would, evicting the set's LRU line — the memory controller's part
// of a miss is left out (memctrl's BenchmarkSchedule covers it). Lines are
// clean, so no writeback is issued.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	total := cfg.SizeBytes / cfg.LineBytes
	r := rng.New(1)
	warm := make([]uint64, total)
	for i := range warm {
		warm[i] = uint64(r.Int63n(1 << 30))
	}
	newWarm := func() *Cache {
		c := New(cfg, nil, &event.Queue{})
		for _, line := range warm {
			c.Warm(line, false)
		}
		return c
	}
	b.Run("hit", func(b *testing.B) {
		c := newWarm()
		var resident []uint64
		for _, l := range warm {
			if c.lookup(l) {
				resident = append(resident, l)
			}
		}
		for i := len(resident) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			resident[i], resident[j] = resident[j], resident[i]
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(resident[i%len(resident)], i&7 == 0, nil)
		}
		if c.Stats.Misses != 0 {
			b.Fatalf("%d misses on resident lines", c.Stats.Misses)
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		c := newWarm()
		fresh := make([]uint64, 8*total) // 8x the capacity: gone again by reuse
		for i := range fresh {
			fresh[i] = 1<<30 + uint64(r.Int63n(1<<30))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			line := fresh[i%len(fresh)]
			if c.lookup(line) {
				continue
			}
			m := c.getMSHR(line, false)
			c.out.Put(line, m)
			c.fill(m, 0)
		}
	})
}
