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
// replacement state: random Warm/WarmAll/Access streams, after Reset and
// ResetForWarm, at 1, 2, 4 and 16 ways and at set counts on both sides of
// WarmAll's radix path, must give the same hit/miss outcome per access, the
// same DRAM submissions (demand reads and written-back lines, in order), the
// same Stats, and the same per-set recency order and dirty bits as stampLRU.
//
// Once a round has accessed the cache it warms only lines neither model
// holds: stampLRU's fill leaves way 0 empty in a fresh set, and a later warm
// of a line resident in a higher way would install a second copy in way 0.
// The simulator only warms an empty cache, before any access.
func TestCacheMatchesStampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16} {
		for _, sets := range []int{64, 256} {
			t.Run(fmt.Sprintf("ways=%d/sets=%d", ways, sets), func(t *testing.T) {
				diffStampLRU(t, Config{SizeBytes: sets * ways * 64, Ways: ways,
					LineBytes: 64, HitLatency: clk.NS(12)}, uint64(ways*1000+sets))
			})
		}
	}
}

func diffStampLRU(t *testing.T, cfg Config, seed uint64) {
	geo := mapping.Default()
	dev := dram.NewDevice(dram.Config{Geo: geo, Timing: clk.DDR5(), Mode: dram.ModeNone, Seed: 1})
	q := &event.Queue{}
	rec := &recMapper{Mapper: mapping.NewZen(geo)}
	mc := memctrl.New(memctrl.Config{Timing: clk.DDR5(), Mapper: rec}, dev, q)
	c := New(cfg, mc, q)
	ref := newStampLRU(cfg)
	var want []uint64 // the submissions ref predicts
	var plan WarmPlan

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

	for round := 0; round < 6; round++ {
		ref.reset()
		if round%2 == 0 {
			c.Reset(mc)
		} else {
			// ResetForWarm defers the wipe to the warm that must follow it:
			// a WarmAll, or in round 3 a single Warm.
			c.ResetForWarm(mc)
			n := r.Intn(2 * capacity)
			if round == 3 {
				n = 1
			}
			lines, dirty := randLines(n, false)
			if round == 3 {
				c.Warm(lines[0], dirty[0])
			} else {
				c.WarmAll(lines, dirty, &plan)
			}
			for i, l := range lines {
				ref.warm(l, dirty[i])
			}
		}
		accessed := false
		for op := 0; op < 3000; op++ {
			switch k := r.Intn(100); {
			case k < 4 || (!accessed && k < 30):
				lines, dirty := randLines(1, accessed)
				c.Warm(lines[0], dirty[0])
				ref.warm(lines[0], dirty[0])
			case k < 6 || (!accessed && k < 35):
				lines, dirty := randLines(r.Intn(capacity), accessed)
				c.WarmAll(lines, dirty, &plan)
				for i, l := range lines {
					ref.warm(l, dirty[i])
				}
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
