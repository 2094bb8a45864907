package cache

import (
	"reflect"
	"sort"
	"testing"

	"autorfm/internal/rng"
)

// warmLine is one resident line in canonical (way-independent) form.
type warmLine struct {
	line  uint64
	lru   uint64
	dirty bool
}

// canonWarmState returns each set's resident lines sorted by LRU stamp plus
// the tick: everything a warmed cache's future behavior depends on. Way
// placement within a set is deliberately not part of it — hits scan every
// way and replacement compares (unique) stamps, so two caches equal under
// this view are behaviorally identical (TestWarmAllEquivalent demonstrates
// it on live traffic).
func canonWarmState(c *Cache) ([][]warmLine, uint64) {
	tags, lru, dirty, tick := warmState(c)
	numSets := int(c.setMask) + 1
	sets := make([][]warmLine, numSets)
	for s := 0; s < numSets; s++ {
		for w := 0; w < c.ways; w++ {
			i := s*c.ways + w
			if tags[i] == invalidTag {
				continue
			}
			sets[s] = append(sets[s], warmLine{line: tags[i], lru: lru[i], dirty: dirty[i]})
		}
		sort.Slice(sets[s], func(a, b int) bool { return sets[s][a].lru < sets[s][b].lru })
	}
	return sets, tick
}

// TestWarmAllMatchesSerial pins the set-major prewarm contract: WarmAll
// leaves the cache equivalent to the same entries applied through serial
// Warm calls — the same surviving lines per set with the same stamps and
// dirty bits, duplicates and full-set LRU eviction included, and the same
// final tick — and a reused plan stays correct across differently sized
// warms. (Ways within a set may be permuted; see canonWarmState.)
func TestWarmAllMatchesSerial(t *testing.T) {
	var plan WarmPlan
	for _, n := range []int{20_000, 777, 20_000} {
		r := rng.New(uint64(n))
		lines := make([]uint64, n)
		dirty := make([]bool, n)
		for i := range lines {
			lines[i] = uint64(r.Int63n(8192)) // few distinct sets: collisions + duplicates
			dirty[i] = r.Bernoulli(0.3)
		}
		serial, _, _ := newRig(t, smallCfg())
		for i, line := range lines {
			serial.Warm(line, dirty[i])
		}
		wSets, wTick := canonWarmState(serial)

		got, _, _ := newRig(t, smallCfg())
		got.WarmAll(lines, dirty, &plan)
		gSets, gTick := canonWarmState(got)
		if !reflect.DeepEqual(gSets, wSets) || gTick != wTick {
			t.Fatalf("WarmAll(n=%d) diverges from serial Warm", n)
		}
	}
}

// TestWarmAllEquivalent drives identically-warmed caches (serial Warm vs
// WarmAll) with the same live access sequence and requires identical stats
// and DRAM traffic: the way-placement freedom WarmAll's empty-cache fast
// path takes is unobservable through the cache's behavior — hit/miss
// decisions, LRU victim choices, and writeback traffic all match.
func TestWarmAllEquivalent(t *testing.T) {
	r := rng.New(99)
	n := 30_000
	lines := make([]uint64, n)
	dirty := make([]bool, n)
	for i := range lines {
		lines[i] = uint64(r.Int63n(4096))
		dirty[i] = r.Bernoulli(0.3)
	}
	serial, smc, sq := newRig(t, smallCfg())
	for i, line := range lines {
		serial.Warm(line, dirty[i])
	}
	setMajor, bmc, bq := newRig(t, smallCfg())
	var plan WarmPlan
	setMajor.WarmAll(lines, dirty, &plan)

	ar := rng.New(7)
	br := rng.New(7)
	for i := 0; i < 20_000; i++ {
		serial.Access(uint64(ar.Int63n(6000)), ar.Bernoulli(0.4), nil)
		setMajor.Access(uint64(br.Int63n(6000)), br.Bernoulli(0.4), nil)
		drain(sq, smc)
		drain(bq, bmc)
	}
	if serial.Stats != setMajor.Stats {
		t.Fatalf("cache stats diverge:\nserial    %+v\nset-major %+v", serial.Stats, setMajor.Stats)
	}
	if smc.Stats != bmc.Stats {
		t.Fatalf("DRAM traffic diverges:\nserial    %+v\nset-major %+v", smc.Stats, bmc.Stats)
	}
}

// TestWarmAllContinuesTick checks WarmAll composes with prior Warm calls:
// stamps continue from the current tick, exactly like more Warms.
func TestWarmAllContinuesTick(t *testing.T) {
	a, _, _ := newRig(t, smallCfg())
	b, _, _ := newRig(t, smallCfg())
	a.Warm(1, false)
	b.Warm(1, false)
	lines := []uint64{3, 4, 3}
	dirty := []bool{true, false, false}
	for i, l := range lines {
		a.Warm(l, dirty[i])
	}
	var plan WarmPlan
	b.WarmAll(lines, dirty, &plan)
	aTags, aLRU, aDirty, aTick := warmState(a)
	bTags, bLRU, bDirty, bTick := warmState(b)
	if !reflect.DeepEqual(aTags, bTags) || !reflect.DeepEqual(aLRU, bLRU) ||
		!reflect.DeepEqual(aDirty, bDirty) || aTick != bTick {
		t.Fatal("WarmAll after Warm diverges from all-serial warming")
	}
}

// BenchmarkWarm compares the serial per-entry warm loop against the
// set-major WarmAll pass at the default LLC geometry (the exact work
// sim.prewarm does per run).
func BenchmarkWarm(b *testing.B) {
	cfg := DefaultConfig()
	total := cfg.SizeBytes / cfg.LineBytes
	r := rng.New(1)
	lines := make([]uint64, total)
	dirty := make([]bool, total)
	for i := range lines {
		lines[i] = uint64(r.Int63n(1 << 30))
		dirty[i] = r.Bernoulli(0.3)
	}
	b.Run("serial", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Reset(mc)
			for j, line := range lines {
				c.Warm(line, dirty[j])
			}
		}
	})
	b.Run("warmall", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		var plan WarmPlan
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Reset(mc)
			c.WarmAll(lines, dirty, &plan)
		}
	})
	// The simulator's start sequence: the reset defers its array wipe to
	// the full-coverage warm (see ResetForWarm).
	b.Run("warmfresh", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		var plan WarmPlan
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ResetForWarm(mc)
			c.WarmAll(lines, dirty, &plan)
		}
	})
}
