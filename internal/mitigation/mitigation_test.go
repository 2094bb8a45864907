package mitigation

import (
	"math"
	"testing"

	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

const rows = 128 * 1024

func sel(row uint32, level int) tracker.Selection {
	return tracker.Selection{Row: row, Level: level, OK: true}
}

func contains(v []uint32, row uint32) bool {
	for _, x := range v {
		if x == row {
			return true
		}
	}
	return false
}

func TestBaselineBlastRadius2(t *testing.T) {
	b := NewBaseline()
	v := b.Victims(sel(1000, 1), rows)
	if len(v) != 4 {
		t.Fatalf("victims = %v, want 4 rows", v)
	}
	for _, want := range []uint32{999, 1001, 998, 1002} {
		if !contains(v, want) {
			t.Errorf("missing victim %d in %v", want, v)
		}
	}
}

func TestBaselineEdgeClamping(t *testing.T) {
	b := NewBaseline()
	if v := b.Victims(sel(0, 1), rows); len(v) != 2 || !contains(v, 1) || !contains(v, 2) {
		t.Errorf("row 0 victims = %v, want [1 2]", v)
	}
	last := uint32(rows - 1)
	if v := b.Victims(sel(last, 1), rows); len(v) != 2 || !contains(v, last-1) || !contains(v, last-2) {
		t.Errorf("last-row victims = %v", v)
	}
	if v := b.Victims(sel(1, 1), rows); len(v) != 3 {
		t.Errorf("row 1 victims = %v, want 3 rows (0,2,3)", v)
	}
}

func TestBaselineNoSelection(t *testing.T) {
	if v := NewBaseline().Victims(tracker.Selection{}, rows); v != nil {
		t.Fatalf("victims for no selection = %v, want nil", v)
	}
}

// TestRecursiveLevels verifies Fig 9(b): level-1 refreshes ±1,±2; level-2
// refreshes ±3,±4 (rows A,B,H,I for aggressor E); level-3 refreshes ±5,±6.
func TestRecursiveLevels(t *testing.T) {
	r := NewRecursive()
	cases := []struct {
		level int
		dists []uint32
	}{
		{1, []uint32{1, 2}},
		{2, []uint32{3, 4}},
		{3, []uint32{5, 6}},
	}
	const agg = 5000
	for _, c := range cases {
		v := r.Victims(sel(agg, c.level), rows)
		if len(v) != 4 {
			t.Fatalf("level %d: %d victims, want 4", c.level, len(v))
		}
		for _, d := range c.dists {
			if !contains(v, agg-d) || !contains(v, agg+d) {
				t.Errorf("level %d: victims %v missing ±%d", c.level, v, d)
			}
		}
	}
}

func TestRecursiveLevelZeroTreatedAsOne(t *testing.T) {
	v := NewRecursive().Victims(sel(100, 0), rows)
	if !contains(v, 99) || !contains(v, 101) {
		t.Fatalf("level-0 victims = %v, want blast radius of level 1", v)
	}
}

func TestFractalAlwaysRefreshesImmediateNeighbors(t *testing.T) {
	f := NewFractal(rng.New(1))
	for i := 0; i < 1000; i++ {
		v := f.Victims(sel(9000, 1), rows)
		if len(v) != 4 {
			t.Fatalf("fractal issued %d refreshes, want exactly 4", len(v))
		}
		if !contains(v, 8999) || !contains(v, 9001) {
			t.Fatalf("fractal victims %v missing ±1", v)
		}
	}
}

// TestFractalDistanceLaw verifies the 2^(1-d) distribution of the distant
// pair (Fig 10a): d=2 with prob 1/2, d=3 with 1/4, ...
func TestFractalDistanceLaw(t *testing.T) {
	f := NewFractal(rng.New(2))
	const n = 1 << 18
	counts := map[int]int{}
	for i := 0; i < n; i++ {
		v := f.Victims(sel(50000, 1), rows)
		// The distant pair is whatever isn't ±1.
		for _, row := range v {
			d := int(row) - 50000
			if d < 0 {
				d = -d
			}
			if d > 1 {
				counts[d]++
				break // count each mitigation once (the pair is symmetric)
			}
		}
	}
	for d := 2; d <= 8; d++ {
		want := float64(n) * math.Pow(2, float64(1-d))
		got := float64(counts[d])
		if math.Abs(got-want) > 6*math.Sqrt(want+1) {
			t.Errorf("distance %d refreshed %v times, want ≈%v", d, got, want)
		}
	}
	// Internal counter must agree.
	var total uint64
	for _, c := range f.DistanceCounts {
		total += c
	}
	if total != n {
		t.Errorf("DistanceCounts total = %d, want %d", total, n)
	}
}

// TestFractalNeverRecursive: the policy must never require a follow-up
// mitigation — this is what gives AutoRFM its deterministic 200ns busy time.
func TestFractalNeverRecursive(t *testing.T) {
	f := NewFractal(rng.New(3))
	if f.Recursive() {
		t.Fatal("fractal reports Recursive() = true")
	}
	if !NewRecursive().Recursive() {
		t.Fatal("recursive reports Recursive() = false")
	}
	if NewBaseline().Recursive() {
		t.Fatal("baseline reports Recursive() = true")
	}
}

func TestFractalMaxDistanceBounded(t *testing.T) {
	// A 16-bit draw bounds the distance at 18 (paper: d=18 gets <1 refresh
	// per 32ms even under continuous hammering).
	f := NewFractal(rng.New(4))
	for i := 0; i < 1<<17; i++ {
		v := f.Victims(sel(60000, 1), rows)
		for _, row := range v {
			d := int(row) - 60000
			if d < 0 {
				d = -d
			}
			if d > 18 {
				t.Fatalf("fractal refreshed distance %d > 18", d)
			}
		}
	}
}

func TestNumRefreshesUniform(t *testing.T) {
	for _, p := range []Policy{NewBaseline(), NewRecursive(), NewFractal(rng.New(5))} {
		if p.NumRefreshes() != 4 {
			t.Errorf("%s: NumRefreshes = %d, want 4", p.Name(), p.NumRefreshes())
		}
	}
}

func TestByName(t *testing.T) {
	r := rng.New(6)
	for _, name := range []string{"baseline", "recursive", "fractal"} {
		p, err := ByName(name, r)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope", r); err == nil {
		t.Error("ByName(nope) did not error")
	}
}

// TestAppendVictimsZeroAllocs pins the contract the DRAM device relies on:
// for every built-in policy, AppendVictims returns exactly the victims
// Victims does and leaves the bank PRNG in the same state for the next draw
// (the device always takes the AppendVictims path), and appending into a
// preallocated buffer is allocation-free, so the per-mitigation victim
// computation costs no heap traffic in the steady-state update loop.
func TestAppendVictimsZeroAllocs(t *testing.T) {
	sels := []tracker.Selection{
		sel(5000, 1), sel(5000, 2), sel(5000, 3), sel(0, 1), sel(1, 2),
		sel(rows-1, 1), sel(rows-2, 2), sel(77, 0), {Row: 9, OK: false},
	}
	for _, name := range Names() {
		ra, rb := rng.New(9), rng.New(9)
		pa, err := ByName(name, ra)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := ByName(name, rb)
		if err != nil {
			t.Fatal(err)
		}
		va, ok := pb.(VictimAppender)
		if !ok {
			t.Errorf("%s: built-in policy does not implement VictimAppender", name)
			continue
		}
		buf := make([]uint32, 0, 8)
		for round := 0; round < 200; round++ {
			s := sels[round%len(sels)]
			want := pa.Victims(s, rows)
			buf = va.AppendVictims(buf[:0], s, rows)
			if len(buf) != len(want) {
				t.Fatalf("%s round %d %+v: AppendVictims %v, Victims %v", name, round, s, buf, want)
			}
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("%s round %d %+v: AppendVictims %v, Victims %v", name, round, s, buf, want)
				}
			}
		}
		if a, b := ra.Uint64(), rb.Uint64(); a != b {
			t.Errorf("%s: PRNG diverged after the same selections: next draw %#x (Victims) vs %#x (AppendVictims)", name, a, b)
		}

		s := sel(5000, 2)
		allocs := testing.AllocsPerRun(100, func() {
			buf = va.AppendVictims(buf[:0], s, rows)
		})
		if allocs != 0 {
			t.Errorf("%s: AppendVictims allocates %.1f objects per call, want 0", name, allocs)
		}
		if len(buf) == 0 {
			t.Errorf("%s: AppendVictims returned no victims", name)
		}
	}
}
