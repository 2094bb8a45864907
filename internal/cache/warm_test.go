package cache

import (
	"fmt"
	"reflect"
	"testing"

	"autorfm/internal/event"
	"autorfm/internal/memctrl"
	"autorfm/internal/rng"
)

// wayLine is one resident line of a set.
type wayLine struct {
	line  uint64
	dirty bool
}

// recencyState returns each set's resident lines, most recent first, with
// their dirty bits: all of a set's state its future behavior depends on.
func recencyState(c *Cache) [][]wayLine {
	sets := make([][]wayLine, len(c.sets))
	for s, st := range c.sets {
		for p := 0; p < int(st.n); p++ {
			w := int(st.order >> (4 * p) & 15)
			line := uint64(c.tags[s*c.ways+w])<<c.setShift | uint64(s)
			sets[s] = append(sets[s], wayLine{line: line, dirty: st.dirty>>w&1 != 0})
		}
	}
	return sets
}

// warmState captures everything Warm touches, for byte-level comparison.
func warmState(c *Cache) ([]uint32, []set) {
	tags := append([]uint32(nil), c.tags...)
	sets := append([]set(nil), c.sets...)
	return tags, sets
}

// warmLines draws n warm entries over lines [0, span), dirty with
// probability 0.3.
func warmLines(r *rng.Source, n int, span int64) ([]uint64, []bool) {
	lines := make([]uint64, n)
	dirty := make([]bool, n)
	for i := range lines {
		lines[i] = uint64(r.Int63n(span))
		dirty[i] = r.Bernoulli(0.3)
	}
	return lines, dirty
}

// coldWarm is the simulator's cold pre-warm: a Reset onto mc, then one Warm
// per entry.
func coldWarm(c *Cache, mc *memctrl.Controller, lines []uint64, dirty []bool) {
	c.Reset(mc)
	for i, line := range lines {
		c.Warm(line, dirty[i])
	}
}

// TestResetMatchesFresh pins the machine-reuse contract for the cache: a
// used-then-Reset cache behaves identically to a new one.
func TestResetMatchesFresh(t *testing.T) {
	cfg := smallCfg()
	cfg.PrefetchDegree = 2 // so the stream detector has state to clear
	used, mc, q := newRig(t, cfg)
	for i := uint64(0); i < 3000; i++ {
		used.Access(i%512, i%3 == 0, nil)
	}
	drain(q, mc)
	if used.recent.Len() == 0 {
		t.Fatal("the run left the stream detector empty; the test does not reach its clear")
	}
	used.Reset(mc)

	fresh, _, _ := newRig(t, smallCfg())
	uTags, uSets := warmState(used)
	fTags, fSets := warmState(fresh)
	if !reflect.DeepEqual(uTags, fTags) || !reflect.DeepEqual(uSets, fSets) {
		t.Fatal("Reset cache arrays differ from a fresh cache")
	}
	if used.Stats != (Stats{}) {
		t.Fatalf("Reset left stats %+v", used.Stats)
	}
	if used.out.Len() != 0 || used.recentN != 0 || used.recent.Len() != 0 {
		t.Fatal("Reset left outstanding-fill or stream-detector state")
	}
	for line := uint64(0); line < 512; line++ {
		if used.recent.Has(line) {
			t.Fatalf("Reset left line %d in the stream-detector set", line)
		}
	}
}

// TestLoadWarmRollbackMatchesFresh is the differential test of the
// rollback: a cache runs on entry A, switches to entry B, and switches back
// to A, and after every such round its arrays must equal a fresh
// cache's LoadWarm of A's saved state. Rounds cover both restore paths (few
// sets marked, and more than an eighth), a Reset wipe of A's working copy,
// a pre-warm of another key over it (a memo miss), and a re-save of A from
// the cache running on its working copy, as the simulator's memo does when
// it evicts the entry the cache runs on.
func TestLoadWarmRollbackMatchesFresh(t *testing.T) {
	r := rng.New(11)
	warm := func(c *Cache, mc *memctrl.Controller, n int, span int64) {
		lines, dirty := warmLines(r, n, span)
		coldWarm(c, mc, lines, dirty)
	}
	run := func(c *Cache, mc *memctrl.Controller, q *event.Queue, n int) {
		for i := 0; i < n; i++ {
			c.Access(uint64(r.Int63n(8192)), r.Bernoulli(0.4), nil)
		}
		drain(q, mc)
	}

	c, mc, q := newRig(t, smallCfg())
	numSets := len(c.sets)
	// a and aRef hold the same saved warm: c runs on a, and aRef is only
	// ever loaded into a fresh reference cache.
	var a, aRef, b, other WarmState
	warm(c, mc, 4000, 6000)
	c.SaveWarm(&a)
	c.SaveWarm(&aRef)
	warm(c, mc, 4000, 6000)
	c.SaveWarm(&b)

	paths := map[string]int{}
	for round := 0; round < 60; round++ {
		c.LoadWarm(&a, mc)
		scenario := round % 5
		switch scenario {
		case 0: // a short job: a handful of sets
			run(c, mc, q, 1+r.Intn(20))
		case 1: // a long job: most sets
			run(c, mc, q, 2000+r.Intn(2000))
		case 2: // a few accesses, then a Reset wipes every set
			run(c, mc, q, 1+r.Intn(20))
			c.Reset(mc)
		case 3: // a miss pre-warms another key over A's working copy
			run(c, mc, q, r.Intn(200))
			warm(c, mc, 4000, 6000)
			c.SaveWarm(&other)
		case 4: // the entry is re-saved from its own working copy
			run(c, mc, q, r.Intn(200))
			warm(c, mc, 4000, 6000)
			c.SaveWarm(&a)
			aRef = WarmState{tags: append([]uint32(nil), a.tags...), sets: append([]set(nil), a.sets...)}
			if m := a.work.marked(); m != 0 {
				t.Fatalf("round %d: re-saving the state c runs on left %d sets marked", round, m)
			}
			run(c, mc, q, 1+r.Intn(20))
		}
		// B's runs are short, so loading B mostly rolls back B's own copy
		// and leaves A's; a long one now and then makes B's next load a
		// whole copy, which trades A's arrays to B.
		c.LoadWarm(&b, mc)
		if round%7 == 6 {
			run(c, mc, q, 300)
		} else {
			run(c, mc, q, r.Intn(20))
		}

		// A whole copy is due when more than an eighth of A's sets are
		// marked: after a long run, a wipe, a pre-warm over A's copy, or a
		// load of B that took A's arrays.
		m := a.work.marked()
		whole := m > numSets/rollbackBulk
		switch {
		case whole:
			paths["whole"]++
		case m > 0:
			paths["sets"]++
		}
		if (scenario == 2 || scenario == 3) && !whole {
			t.Fatalf("round %d: scenario %d left %d of %d sets marked", round, scenario, m, numSets)
		}
		c.LoadWarm(&a, mc)
		ref, rmc, _ := newRig(t, smallCfg())
		ref.LoadWarm(&aRef, rmc)
		cTags, cSets := warmState(c)
		rTags, rSets := warmState(ref)
		if !reflect.DeepEqual(cTags, rTags) || !reflect.DeepEqual(cSets, rSets) {
			t.Fatalf("round %d (scenario %d, %d sets marked): rolled-back arrays differ from a fresh LoadWarm",
				round, scenario, m)
		}
		if n := a.work.marked(); n != 0 {
			t.Fatalf("round %d: LoadWarm left %d sets marked", round, n)
		}
	}
	if paths["sets"] == 0 || paths["whole"] == 0 {
		t.Fatalf("restore paths taken: %v, want both the per-set and the whole-copy path", paths)
	}
}

// TestLoadWarmMatchesWarm pins the save/restore contract the simulator's
// pre-warm memo rests on: a cold pre-warm's way state, saved and restored
// into a second cache that still holds an earlier run's warm and accesses
// (as a reused machine does), leaves the same arrays and no run state, and
// the two caches then answer the same access stream with the same stats and
// the same DRAM traffic through the controller LoadWarm bound.
func TestLoadWarmMatchesWarm(t *testing.T) {
	r := rng.New(5)
	lines, dirty := warmLines(r, 30_000, 4096)
	src, smc, sq := newRig(t, smallCfg())
	coldWarm(src, smc, lines, dirty)
	var saved WarmState
	src.SaveWarm(&saved)

	dst, dmc, dq := newRig(t, smallCfg())
	coldWarm(dst, dmc, lines[:len(lines)/2], dirty[len(lines)/2:]) // an earlier run's warm
	for i := 0; i < 200; i++ {
		dst.Access(uint64(r.Int63n(6000)), true, nil)
	}
	drain(dq, dmc)
	dq.Reset()
	dmc = newMC(dq) // the next run's queue and controller, as a reused machine has
	dst.LoadWarm(&saved, dmc)
	sTags, sSets := warmState(src)
	dTags, dSets := warmState(dst)
	if !reflect.DeepEqual(sTags, dTags) || !reflect.DeepEqual(sSets, dSets) {
		t.Fatal("LoadWarm state differs from the warm it was saved from")
	}
	if dst.Stats != (Stats{}) {
		t.Fatalf("LoadWarm left the earlier run's stats %+v", dst.Stats)
	}

	ar := rng.New(8)
	br := rng.New(8)
	for i := 0; i < 20_000; i++ {
		src.Access(uint64(ar.Int63n(6000)), ar.Bernoulli(0.4), nil)
		dst.Access(uint64(br.Int63n(6000)), br.Bernoulli(0.4), nil)
		drain(sq, smc)
		drain(dq, dmc)
	}
	if src.Stats != dst.Stats {
		t.Fatalf("cache stats diverge:\nwarmed   %+v\nrestored %+v", src.Stats, dst.Stats)
	}
	if smc.Stats != dmc.Stats {
		t.Fatalf("DRAM traffic diverges:\nwarmed   %+v\nrestored %+v", smc.Stats, dmc.Stats)
	}
}

// TestLoadWarmRejectsOtherGeometry: a state saved from one geometry must
// not be copied into a cache of another.
func TestLoadWarmRejectsOtherGeometry(t *testing.T) {
	src, _, _ := newRig(t, smallCfg())
	var saved WarmState
	src.SaveWarm(&saved)
	other := smallCfg()
	other.Ways = 8 // same size and slot count, half the sets
	dst, mc, _ := newRig(t, other)
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWarm accepted a state of another geometry")
		}
	}()
	dst.LoadWarm(&saved, mc)
}

// BenchmarkWarm times the simulator's two ways to start a run's LLC at the
// default geometry: a cold pre-warm (a Reset, then one Warm per line slot,
// the cache work of sim.prewarm), and a pre-warm memo hit, which restores a
// saved warm whole or rolls back only the sets a run changed.
func BenchmarkWarm(b *testing.B) {
	cfg := DefaultConfig()
	total := cfg.SizeBytes / cfg.LineBytes
	r := rng.New(1)
	lines, dirty := warmLines(r, total, 1<<30)
	b.Run("serial", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coldWarm(c, mc, lines, dirty)
		}
	})
	// A memo hit whose working copy is wholly marked (an entry's first hit,
	// or one after a pre-warm of another key overwrote it): one copy of the
	// saved way state.
	b.Run("restore", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		coldWarm(c, mc, lines, dirty)
		var saved WarmState
		c.SaveWarm(&saved)
		c.LoadWarm(&saved, mc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			saved.work.markAll()
			c.LoadWarm(&saved, mc)
		}
	})
	// A memo hit onto the working copy a run has just used: LoadWarm
	// restores only the sets the run marked. A 2k-instruction job marks 815
	// sets on average; a quick-scale job marks most of them.
	numSets := total / cfg.Ways
	for _, n := range []int{815, numSets} {
		b.Run(fmt.Sprintf("rollback/sets=%d", n), func(b *testing.B) {
			c, mc, _ := newRig(b, cfg)
			coldWarm(c, mc, lines, dirty)
			var saved WarmState
			c.SaveWarm(&saved)
			c.LoadWarm(&saved, mc)
			touched := r.Perm(numSets)[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range touched {
					c.mark(uint64(s))
				}
				c.LoadWarm(&saved, mc)
			}
		})
	}
}
