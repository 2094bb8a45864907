package cache

import (
	"fmt"
	"reflect"
	"testing"

	"autorfm/internal/rng"
)

// TestWarmAllMatchesSerial pins the set-major prewarm contract: WarmAll
// leaves the cache equivalent to the same entries applied through serial
// Warm calls — the same surviving lines per set in the same recency order
// with the same dirty bits, duplicates and full-set LRU eviction included,
// and the same empty/non-empty state — and a reused plan stays correct
// across differently sized warms. (Ways within a set may be permuted; see
// recencyState.)
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
		wSets, wFresh := recencyState(serial), serial.fresh

		got, _, _ := newRig(t, smallCfg())
		got.WarmAll(lines, dirty, &plan)
		gSets, gFresh := recencyState(got), got.fresh
		if !reflect.DeepEqual(gSets, wSets) || gFresh != wFresh {
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
// on a cache already holding lines it leaves the exact arrays more Warms do.
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
	aTags, aSets, aFresh := warmState(a)
	bTags, bSets, bFresh := warmState(b)
	if !reflect.DeepEqual(aTags, bTags) || !reflect.DeepEqual(aSets, bSets) || aFresh != bFresh {
		t.Fatal("WarmAll after Warm diverges from all-serial warming")
	}
}

// TestLoadWarmMatchesWarmAll pins the save/restore contract the simulator's
// pre-warm memo rests on: a WarmAll's way state, saved and restored into a
// second cache that still holds an earlier warm (ResetForWarm, as a reused
// machine does), leaves the same arrays and flags, and the two caches then
// answer the same access stream with the same stats and DRAM traffic.
func TestLoadWarmMatchesWarmAll(t *testing.T) {
	r := rng.New(5)
	n := 30_000
	lines := make([]uint64, n)
	dirty := make([]bool, n)
	for i := range lines {
		lines[i] = uint64(r.Int63n(4096))
		dirty[i] = r.Bernoulli(0.3)
	}
	var plan WarmPlan
	src, smc, sq := newRig(t, smallCfg())
	src.ResetForWarm(smc)
	src.WarmAll(lines, dirty, &plan)
	var saved WarmState
	src.SaveWarm(&saved)

	dst, dmc, dq := newRig(t, smallCfg())
	dst.WarmAll(lines[:n/2], dirty[n/2:], &plan) // an earlier run's warm
	dst.ResetForWarm(dmc)
	dst.LoadWarm(&saved)
	sTags, sSets, sFresh := warmState(src)
	dTags, dSets, dFresh := warmState(dst)
	if !reflect.DeepEqual(sTags, dTags) || !reflect.DeepEqual(sSets, dSets) ||
		sFresh != dFresh || src.stale != dst.stale {
		t.Fatal("LoadWarm state differs from the WarmAll it was saved from")
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
	dst, _, _ := newRig(t, other)
	defer func() {
		if recover() == nil {
			t.Fatal("LoadWarm accepted a state of another geometry")
		}
	}()
	dst.LoadWarm(&saved)
}

// BenchmarkWarm compares the serial per-entry warm loop against the
// set-major WarmAll pass at the default LLC geometry (the exact work
// sim.prewarm does per run), and both against restoring a saved warm whole
// and rolling back only the sets a run changed.
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
	// The simulator's start sequence on a pre-warm memo hit whose working
	// copy is wholly marked (an entry's first hit, or one after a pre-warm
	// of another key overwrote it): the same reset, then one copy of the
	// saved way state.
	b.Run("restore", func(b *testing.B) {
		c, mc, _ := newRig(b, cfg)
		var plan WarmPlan
		c.WarmAll(lines, dirty, &plan)
		var saved WarmState
		c.SaveWarm(&saved)
		c.LoadWarm(&saved)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			saved.work.markAll()
			c.ResetForWarm(mc)
			c.LoadWarm(&saved)
		}
	})
	// A memo hit onto the working copy a run has just used: LoadWarm
	// restores only the sets the run marked. A 2k-instruction job marks 815
	// sets on average; a quick-scale job marks most of them.
	numSets := total / cfg.Ways
	for _, n := range []int{815, numSets} {
		b.Run(fmt.Sprintf("rollback/sets=%d", n), func(b *testing.B) {
			c, mc, _ := newRig(b, cfg)
			var plan WarmPlan
			c.WarmAll(lines, dirty, &plan)
			var saved WarmState
			c.SaveWarm(&saved)
			c.LoadWarm(&saved)
			touched := r.Perm(numSets)[:n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range touched {
					c.mark(uint64(s))
				}
				c.ResetForWarm(mc)
				c.LoadWarm(&saved)
			}
		})
	}
}
