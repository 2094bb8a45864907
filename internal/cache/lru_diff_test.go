package cache

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/mapping"
	"autorfm/internal/memctrl"
	"autorfm/internal/rng"
)

// stampLRU is the executable specification of the LLC's replacement state:
// per-way tags, LRU stamps drawn from a global tick, dirty bits, and a
// linear minimum-stamp victim scan — exact LRU written the obvious way.
// TestCacheMatchesStampLRU drives it and a real Cache with the same streams.
type stampLRU struct {
	tags    []uint64
	lru     []uint64
	dirty   []bool
	ways    int
	setMask uint64
	tick    uint64

	stats   Stats
	pending map[uint64]bool // outstanding fill → merged dirty bit
}

// stampEmpty marks an empty way slot of stampLRU.
const stampEmpty = ^uint64(0)

func newStampLRU(cfg Config) *stampLRU {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	r := &stampLRU{
		tags:    make([]uint64, numSets*cfg.Ways),
		lru:     make([]uint64, numSets*cfg.Ways),
		dirty:   make([]bool, numSets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(numSets - 1),
		pending: map[uint64]bool{},
	}
	r.reset()
	return r
}

func (r *stampLRU) reset() {
	for i := range r.tags {
		r.tags[i], r.lru[i], r.dirty[i] = stampEmpty, 0, false
	}
	r.tick = 0
	r.stats = Stats{}
}

// save returns a copy of r's way state and clock, for restore.
func (r *stampLRU) save() stampLRU {
	s := *r
	s.tags = append([]uint64(nil), r.tags...)
	s.lru = append([]uint64(nil), r.lru...)
	s.dirty = append([]bool(nil), r.dirty...)
	return s
}

// restore is Cache.LoadWarm: the way state and clock s saved, zero stats.
func (r *stampLRU) restore(s *stampLRU) {
	copy(r.tags, s.tags)
	copy(r.lru, s.lru)
	copy(r.dirty, s.dirty)
	r.tick = s.tick
	r.stats = Stats{}
}

// warm installs line as the most recent in its set, overwriting the dirty
// bit of a resident copy and evicting the least recent line of a full set.
func (r *stampLRU) warm(line uint64, dirty bool) {
	r.tick++
	base := int(line&r.setMask) * r.ways
	victim := base
	for i := base; i < base+r.ways; i++ {
		if tg := r.tags[i]; tg == stampEmpty || tg == line {
			victim = i
			break
		}
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.tags[victim], r.lru[victim], r.dirty[victim] = line, r.tick, dirty
}

func (r *stampLRU) holds(line uint64) bool {
	base := int(line&r.setMask) * r.ways
	for _, tg := range r.tags[base : base+r.ways] {
		if tg == line {
			return true
		}
	}
	return false
}

// access is Cache.Access: a hit restamps the line (marking it dirty on a
// write); a miss opens a fill or merges into the outstanding one. It
// reports whether the access hit and whether it opened a new fill.
func (r *stampLRU) access(line uint64, write bool) (hit, opened bool) {
	r.tick++
	base := int(line&r.setMask) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == line {
			r.stats.Hits++
			r.lru[i] = r.tick
			if write {
				r.dirty[i] = true
			}
			return true, false
		}
	}
	r.stats.Misses++
	if d, ok := r.pending[line]; ok {
		r.stats.Merged++
		r.pending[line] = d || write
		return false, false
	}
	r.pending[line] = write
	return false, true
}

// fill completes line's outstanding fill: it takes the first empty way, or
// the way with the smallest stamp once the set is full, and returns the
// evicted line when it was dirty.
func (r *stampLRU) fill(line uint64) (wb uint64, ok bool) {
	d := r.pending[line]
	delete(r.pending, line)
	base := int(line&r.setMask) * r.ways
	victim := base
	for i := base + 1; i < base+r.ways; i++ {
		if r.tags[i] == stampEmpty {
			victim = i
			break
		}
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	if r.tags[victim] != stampEmpty && r.dirty[victim] {
		r.stats.Writebacks++
		wb, ok = r.tags[victim], true
	}
	r.tick++
	r.tags[victim], r.lru[victim], r.dirty[victim] = line, r.tick, d
	return wb, ok
}

// recency returns each set's resident lines, most recent first.
func (r *stampLRU) recency() [][]wayLine {
	sets := make([][]wayLine, int(r.setMask)+1)
	for s := range sets {
		var stamps []uint64
		for w := 0; w < r.ways; w++ {
			i := s*r.ways + w
			if r.tags[i] == stampEmpty {
				continue
			}
			sets[s] = append(sets[s], wayLine{line: r.tags[i], dirty: r.dirty[i]})
			stamps = append(stamps, r.lru[i])
		}
		sort.Sort(byStampDesc{sets[s], stamps})
	}
	return sets
}

type byStampDesc struct {
	lines  []wayLine
	stamps []uint64
}

func (b byStampDesc) Len() int           { return len(b.lines) }
func (b byStampDesc) Less(i, j int) bool { return b.stamps[i] > b.stamps[j] }
func (b byStampDesc) Swap(i, j int) {
	b.lines[i], b.lines[j] = b.lines[j], b.lines[i]
	b.stamps[i], b.stamps[j] = b.stamps[j], b.stamps[i]
}

// recMapper records every line the controller maps: one per demand read and
// one per writeback, in submission order.
type recMapper struct {
	mapping.Mapper
	lines []uint64
}

func (m *recMapper) Map(line uint64) mapping.Location {
	m.lines = append(m.lines, line)
	return m.Mapper.Map(line)
}

// TestCacheMatchesStampLRU is the differential test for the LLC's
// replacement state: random Warm/Access streams, at 1, 2, 4 and 16 ways and
// 64 and 256 sets, must give the same hit/miss outcome per access, the same
// DRAM submissions (demand reads and written-back lines, in order), the same
// Stats, and the same per-set recency order and dirty bits as stampLRU.
// Rounds start every way a simulator run can: from Reset, from a cold
// pre-warm (Reset, then Warm calls), and from a pre-warm memo hit (LoadWarm
// of a saved warm), whose rollback of a short round's sets and whole copy
// after a long round must both take place.
//
// Once a round has accessed the cache it warms only lines neither model
// holds: stampLRU's fill leaves way 0 empty in a fresh set, and a later warm
// of a line resident in a higher way would install a second copy in way 0.
// The simulator only warms an empty cache, before any access.
func TestCacheMatchesStampLRU(t *testing.T) {
	paths := map[string]int{}
	for _, ways := range []int{1, 2, 4, 16} {
		for _, sets := range []int{64, 256} {
			t.Run(fmt.Sprintf("ways=%d/sets=%d", ways, sets), func(t *testing.T) {
				diffStampLRU(t, Config{SizeBytes: sets * ways * 64, Ways: ways,
					LineBytes: 64, HitLatency: clk.NS(12)}, uint64(ways*1000+sets), paths)
			})
		}
	}
	if paths["sets"] == 0 || paths["whole"] == 0 {
		t.Fatalf("memo-hit restore paths taken: %v, want both the per-set and the whole-copy path", paths)
	}
}

// diffStampLRU runs one geometry of TestCacheMatchesStampLRU, counting in
// paths how each memo hit restored the saved warm.
func diffStampLRU(t *testing.T, cfg Config, seed uint64, paths map[string]int) {
	geo := mapping.Default()
	dev := dram.NewDevice(dram.Config{Geo: geo, Timing: clk.DDR5(), Mode: dram.ModeNone, Seed: 1})
	q := &event.Queue{}
	rec := &recMapper{Mapper: mapping.NewZen(geo)}
	mc := memctrl.New(memctrl.Config{Timing: clk.DDR5(), Mapper: rec}, dev, q)
	c := New(cfg, mc, q)
	ref := newStampLRU(cfg)
	var want []uint64 // the submissions ref predicts

	r := rng.New(seed)
	capacity := cfg.SizeBytes / cfg.LineBytes
	span := int64(3 * capacity) // overflows sets, with repeats
	randLines := func(n int, accessed bool) ([]uint64, []bool) {
		lines := make([]uint64, 0, n)
		dirty := make([]bool, 0, n)
		for len(lines) < n {
			l := uint64(r.Int63n(span))
			if accessed && ref.holds(l) {
				continue
			}
			lines = append(lines, l)
			dirty = append(dirty, r.Bernoulli(0.3))
		}
		return lines, dirty
	}
	warm := func(lines []uint64, dirty []bool) {
		for i, l := range lines {
			c.Warm(l, dirty[i])
			ref.warm(l, dirty[i])
		}
	}
	access := func(op int, line uint64, write bool) {
		hits := c.Stats.Hits
		c.Access(line, write, nil)
		hit, opened := ref.access(line, write)
		if got := c.Stats.Hits > hits; got != hit {
			t.Fatalf("op %d: Access(%d) hit=%v, stampLRU hit=%v", op, line, got, hit)
		}
		if opened {
			want = append(want, line)
		}
	}

	// saved is the last cold pre-warm, and refSaved ref's copy of it. A
	// round of few ops leaves few sets marked in saved's working copy.
	var saved WarmState
	var refSaved stampLRU
	rounds := []struct {
		start string
		ops   int
	}{
		{"reset", 3000}, {"warm", 3000}, {"load", 3000}, {"load", 4}, {"load", 3000},
		{"reset", 3000}, {"warm", 4}, {"load", 3000}, {"warm", 3000}, {"load", 3000},
	}
	for round, rd := range rounds {
		switch rd.start {
		case "reset":
			c.Reset(mc)
			ref.reset()
		case "warm":
			c.Reset(mc)
			ref.reset()
			n := r.Intn(2 * capacity)
			if round == 6 {
				n = 1
			}
			warm(randLines(n, false))
			c.SaveWarm(&saved)
			refSaved = ref.save()
		case "load":
			switch m := saved.work.marked(); {
			case m > len(c.sets)/rollbackBulk:
				paths["whole"]++
			case m > 0:
				paths["sets"]++
			}
			c.LoadWarm(&saved, mc)
			ref.restore(&refSaved)
			if !reflect.DeepEqual(recencyState(c), ref.recency()) {
				t.Fatalf("round %d: LoadWarm's recency order or dirty bits diverge from stampLRU's saved warm", round)
			}
		}
		accessed := false
		for op := 0; op < rd.ops; op++ {
			switch k := r.Intn(100); {
			case k < 4 || (!accessed && k < 30):
				warm(randLines(1, accessed))
			case k < 6 || (!accessed && k < 35):
				warm(randLines(r.Intn(capacity), accessed))
			default:
				accessed = true
				line := uint64(r.Int63n(span))
				access(op, line, r.Bernoulli(0.4))
				if r.Bernoulli(0.1) {
					access(op, line, r.Bernoulli(0.5)) // merges into the fill
				}
				drain(q, mc)
				for l := range ref.pending {
					if wb, ok := ref.fill(l); ok {
						want = append(want, wb)
					}
				}
				if !reflect.DeepEqual(rec.lines, want) {
					t.Fatalf("op %d: DRAM submissions %v, stampLRU %v", op, rec.lines, want)
				}
				rec.lines, want = rec.lines[:0], want[:0]
			}
		}
		if c.Stats != ref.stats {
			t.Fatalf("round %d: Stats %+v, stampLRU %+v", round, c.Stats, ref.stats)
		}
		if !reflect.DeepEqual(recencyState(c), ref.recency()) {
			t.Fatalf("round %d: per-set recency order or dirty bits diverge from stampLRU", round)
		}
	}
}
