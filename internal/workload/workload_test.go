package workload

import (
	"fmt"
	"math"
	"testing"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 21 {
		t.Fatalf("Profiles = %d, want 21 (11 SPEC + 6 GAP + 4 STREAM)", len(ps))
	}
	suites := map[string]int{}
	for _, p := range ps {
		suites[p.Suite]++
		if p.TargetACTPKI <= 0 || p.MemPKI <= 0 {
			t.Errorf("%s: non-positive intensity", p.Name)
		}
		if p.WriteFrac < 0 || p.WriteFrac > 1 || p.SeqFrac < 0 || p.SeqFrac > 1 {
			t.Errorf("%s: fraction out of range", p.Name)
		}
		if p.FootprintMB < 64 {
			t.Errorf("%s: footprint %dMB too small to defeat an 8MB LLC", p.Name, p.FootprintMB)
		}
	}
	if suites["spec"] != 11 || suites["gap"] != 6 || suites["stream"] != 4 {
		t.Fatalf("suite counts: %v", suites)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("bwaves")
	if err != nil || p.TargetACTPKI != 35.7 {
		t.Fatalf("ByName(bwaves) = %+v, %v", p, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(Names()) != 21 {
		t.Fatal("Names length")
	}
}

func TestGeneratorGapMatchesMemPKI(t *testing.T) {
	p, _ := ByName("bwaves")
	g := NewGenerator(p, 0, 1)
	const n = 200000
	instr := int64(0)
	for i := 0; i < n; i++ {
		rec, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		instr += int64(rec.Gap) + 1
	}
	gotPKI := float64(n) / float64(instr) * 1000
	if math.Abs(gotPKI-p.MemPKI)/p.MemPKI > 0.05 {
		t.Fatalf("generated MemPKI = %.2f, want %.2f", gotPKI, p.MemPKI)
	}
}

func TestGeneratorWriteFraction(t *testing.T) {
	p, _ := ByName("copy")
	g := NewGenerator(p, 0, 2)
	writes := 0
	const n = 100000
	for i := 0; i < n; i++ {
		rec, _ := g.Next()
		if rec.Write {
			writes++
		}
	}
	if got := float64(writes) / n; math.Abs(got-0.5) > 0.02 {
		t.Fatalf("write fraction = %v, want 0.5", got)
	}
}

func TestGeneratorStaysInFootprint(t *testing.T) {
	p, _ := ByName("mcf")
	for core := 0; core < 3; core++ {
		g := NewGenerator(p, core, 3)
		lines := uint64(p.FootprintMB) * linesPerMB
		lo, hi := uint64(core)*lines, uint64(core+1)*lines
		for i := 0; i < 50000; i++ {
			rec, _ := g.Next()
			if rec.Line < lo || rec.Line >= hi {
				t.Fatalf("core %d: line %d outside [%d,%d)", core, rec.Line, lo, hi)
			}
		}
	}
}

func TestGeneratorCoresDisjoint(t *testing.T) {
	p, _ := ByName("add")
	g0 := NewGenerator(p, 0, 4)
	g1 := NewGenerator(p, 1, 4)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		r0, _ := g0.Next()
		seen[r0.Line] = true
	}
	for i := 0; i < 10000; i++ {
		r1, _ := g1.Next()
		if seen[r1.Line] {
			t.Fatal("cores share lines — rate mode must be disjoint")
		}
	}
}

// TestStreamWorkloadSequential verifies SeqFrac=1 workloads advance their
// streams strictly by one line at a time.
func TestStreamWorkloadSequential(t *testing.T) {
	p, _ := ByName("copy") // 2 streams, fully sequential
	g := NewGenerator(p, 0, 5)
	last := map[int]uint64{}
	// Identify stream membership by proximity: each access must be exactly
	// +1 from one of the stream cursors.
	cursors := append([]uint64(nil), g.streams...)
	_ = last
	for i := 0; i < 10000; i++ {
		rec, _ := g.Next()
		rel := rec.Line - g.base
		matched := false
		for j, c := range cursors {
			if rel == (c+1)%g.lines {
				cursors[j] = rel
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("access %d (line %d) not sequential to any stream", i, rel)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("pagerank")
	a := NewGenerator(p, 0, 42)
	b := NewGenerator(p, 0, 42)
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandomWorkloadCoversFootprint(t *testing.T) {
	p, _ := ByName("conncomp") // 90% random
	g := NewGenerator(p, 0, 6)
	buckets := make([]int, 16)
	const n = 100000
	for i := 0; i < n; i++ {
		rec, _ := g.Next()
		buckets[(rec.Line-g.base)*16/g.lines]++
	}
	// The random share (1−SeqFrac) spreads uniformly; the sequential share
	// concentrates near the stream cursors, so only lower-bound each bucket
	// by the random share and upper-bound by random share + all sequential.
	randPerBucket := float64(n) * (1 - p.SeqFrac) / 16
	maxPerBucket := randPerBucket*1.2 + float64(n)*p.SeqFrac
	for i, c := range buckets {
		if float64(c) < 0.8*randPerBucket {
			t.Fatalf("bucket %d = %d, want ≥ %.0f (uniform random coverage)", i, c, 0.8*randPerBucket)
		}
		if float64(c) > maxPerBucket {
			t.Fatalf("bucket %d = %d exceeds bound %.0f", i, c, maxPerBucket)
		}
	}
}

// resetProfiles is every Table V profile, then hand-built ones with no
// stream, more streams than a Generator holds inline (twice, so the second
// reuses the first's slice), and exactly as many as it holds.
func resetProfiles() []Profile {
	ps := Profiles()
	for _, n := range []int{9, 12, 9, 0, 8} {
		p := ps[0]
		p.Name = fmt.Sprintf("streams%d", n)
		p.Streams = n
		ps = append(ps, p)
	}
	return ps
}

// TestGeneratorResetMatchesNew pins Reset against NewGenerator: one
// generator reset onto each profile in turn, last used on a different
// profile, core and seed each time, yields the records of a new generator
// for 10k records.
func TestGeneratorResetMatchesNew(t *testing.T) {
	ps := resetProfiles()
	g := NewGenerator(ps[len(ps)-1], 3, 99)
	for i := 0; i < 100; i++ {
		g.Next()
	}
	for i, p := range ps {
		core, seed := i%8, uint64(7+i)
		g.Reset(p, core, seed)
		fresh := NewGenerator(p, core, seed)
		for n := 0; n < 10_000; n++ {
			got, _ := g.Next()
			want, _ := fresh.Next()
			if got != want {
				t.Fatalf("%s (%d streams): record %d of the reset generator is %+v, a new one's %+v",
					p.Name, p.Streams, n, got, want)
			}
		}
	}
}

// TestGeneratorAllocs guards the one-object generator: NewGenerator
// allocates the Generator alone (and a stream-head slice beyond
// inlineStreams), and Reset nothing once the generator has room.
func TestGeneratorAllocs(t *testing.T) {
	for _, p := range resetProfiles() {
		want := 1.0
		if p.Streams > inlineStreams {
			want = 2
		}
		if a := testing.AllocsPerRun(10, func() { NewGenerator(p, 1, 2) }); a != want {
			t.Errorf("%s: NewGenerator allocates %.1f objects, want %.0f", p.Name, a, want)
		}
		g := NewGenerator(p, 1, 2)
		if a := testing.AllocsPerRun(10, func() { g.Reset(p, 2, 3) }); a != 0 {
			t.Errorf("%s: Reset allocates %.1f objects, want 0", p.Name, a)
		}
	}
}
