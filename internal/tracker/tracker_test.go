package tracker

import (
	"math"
	"testing"

	"autorfm/internal/rng"
)

// drive feeds one window of w unique rows and closes the window.
func drive(tr Tracker, rows []uint32) Selection {
	for _, r := range rows {
		tr.OnActivation(r)
	}
	return tr.SelectForMitigation()
}

func TestMINTSelectsExactlyOnePerWindow(t *testing.T) {
	m := NewMINT(4, false, rng.New(1))
	rows := []uint32{10, 20, 30, 40}
	for w := 0; w < 1000; w++ {
		sel := drive(m, rows)
		if !sel.OK {
			t.Fatalf("window %d: MINT (non-recursive) must always select", w)
		}
		if sel.Level != 1 {
			t.Fatalf("window %d: level = %d, want 1", w, sel.Level)
		}
		found := false
		for _, r := range rows {
			if sel.Row == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("window %d: selected row %d not in window", w, sel.Row)
		}
	}
}

// TestMINTUniformSelection verifies MINT's selection is uniform over the
// window slots (probability 1/W per slot in FM mode).
func TestMINTUniformSelection(t *testing.T) {
	m := NewMINT(4, false, rng.New(2))
	rows := []uint32{0, 1, 2, 3}
	counts := make([]int, 4)
	const windows = 40000
	for w := 0; w < windows; w++ {
		sel := drive(m, rows)
		counts[sel.Row]++
	}
	want := float64(windows) / 4
	for slot, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("slot %d selected %d times, want ≈%.0f", slot, c, want)
		}
	}
}

// TestMINTRecursiveReservedSlot verifies that in recursive mode the reserved
// slot fires with probability 1/(W+1) and re-mitigates the previous aggressor
// at an increased level.
func TestMINTRecursiveReservedSlot(t *testing.T) {
	m := NewMINT(4, true, rng.New(3))
	rows := []uint32{100, 200, 300, 400}
	transitive, direct := 0, 0
	const windows = 50000
	prevRow := uint32(0)
	for w := 0; w < windows; w++ {
		sel := drive(m, rows)
		if !sel.OK {
			// Can only happen before any direct mitigation exists.
			if direct > 0 {
				t.Fatalf("window %d: no selection after a direct mitigation", w)
			}
			continue
		}
		if sel.Level > 1 {
			transitive++
			if sel.Row != prevRow {
				t.Fatalf("window %d: transitive selection of %d, want previous aggressor %d",
					w, sel.Row, prevRow)
			}
		} else {
			direct++
			prevRow = sel.Row
		}
	}
	rate := float64(transitive) / float64(windows)
	if math.Abs(rate-0.2) > 0.01 { // 1/(W+1) = 1/5
		t.Fatalf("transitive rate = %v, want ≈0.2", rate)
	}
}

// TestMINTRecursiveLevelGrowth: consecutive reserved-slot hits escalate the
// mitigation level (level-2, level-3, ... per Fig 9(b)).
func TestMINTRecursiveLevelGrowth(t *testing.T) {
	m := NewMINT(4, true, rng.New(4))
	rows := []uint32{7, 8, 9, 10}
	maxLevel := 0
	for w := 0; w < 200000; w++ {
		sel := drive(m, rows)
		if sel.OK && sel.Level > maxLevel {
			maxLevel = sel.Level
		}
	}
	if maxLevel < 3 {
		t.Fatalf("max recursive level = %d, expected chains of 3+ over 200k windows", maxLevel)
	}
}

func TestMINTShortWindow(t *testing.T) {
	// A window closed early (REF) may miss the selected slot; MINT must not
	// nominate garbage in FM mode.
	m := NewMINT(8, false, rng.New(5))
	missed, selected := 0, 0
	for w := 0; w < 2000; w++ {
		m.OnActivation(42) // only 1 of 8 slots used
		if sel := m.SelectForMitigation(); sel.OK {
			if sel.Row != 42 {
				t.Fatalf("selected unobserved row %d", sel.Row)
			}
			selected++
		} else {
			missed++
		}
	}
	// Slot 0 is chosen 1/8 of the time.
	if rate := float64(selected) / 2000; math.Abs(rate-0.125) > 0.04 {
		t.Fatalf("short-window selection rate = %v, want ≈1/8", rate)
	}
}

func TestMINTPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMINT(0) did not panic")
		}
	}()
	NewMINT(0, false, rng.New(0))
}

func TestPrIDESamplingRate(t *testing.T) {
	p := NewPrIDE(4, 4, rng.New(6))
	const acts = 100000
	for i := 0; i < acts; i++ {
		p.OnActivation(uint32(i))
		p.SelectForMitigation() // drain so the FIFO never overflows
	}
	rate := float64(p.Inserted) / acts
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("PrIDE insertion rate = %v, want ≈0.25", rate)
	}
	if p.Dropped != 0 {
		t.Fatalf("PrIDE dropped %d with an always-drained FIFO", p.Dropped)
	}
}

func TestPrIDEFIFOOverflowDrops(t *testing.T) {
	p := NewPrIDE(1, 2, rng.New(7)) // sample every ACT, FIFO of 2
	for i := 0; i < 10; i++ {
		p.OnActivation(uint32(i))
	}
	if p.Dropped != 8 {
		t.Fatalf("Dropped = %d, want 8", p.Dropped)
	}
	// Oldest entries survive (insertion-order FIFO).
	if sel := p.SelectForMitigation(); !sel.OK || sel.Row != 0 {
		t.Fatalf("first pop = %+v, want row 0", sel)
	}
	if sel := p.SelectForMitigation(); !sel.OK || sel.Row != 1 {
		t.Fatalf("second pop = %+v, want row 1", sel)
	}
	if sel := p.SelectForMitigation(); sel.OK {
		t.Fatal("empty FIFO returned a selection")
	}
}

func TestPARFMSelectsFromWindow(t *testing.T) {
	p := NewPARFM(4, rng.New(8))
	counts := map[uint32]int{}
	rows := []uint32{1, 2, 3, 4}
	const windows = 40000
	for w := 0; w < windows; w++ {
		sel := drive(p, rows)
		if !sel.OK {
			t.Fatal("PARFM with a full buffer must select")
		}
		counts[sel.Row]++
	}
	want := float64(windows) / 4
	for r, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("row %d: %d selections, want ≈%.0f", r, c, want)
		}
	}
}

func TestPARFMReservoirOverrun(t *testing.T) {
	// Window twice the buffer: every activation must still be selectable.
	p := NewPARFM(4, rng.New(9))
	seen := map[uint32]bool{}
	for w := 0; w < 20000; w++ {
		for i := uint32(0); i < 8; i++ {
			p.OnActivation(i)
		}
		if sel := p.SelectForMitigation(); sel.OK {
			seen[sel.Row] = true
		}
	}
	for i := uint32(0); i < 8; i++ {
		if !seen[i] {
			t.Errorf("row %d never selected despite reservoir sampling", i)
		}
	}
}

func TestPARAInlineProbability(t *testing.T) {
	p := NewPARA(0.25, rng.New(10))
	hits := 0
	const acts = 100000
	for i := 0; i < acts; i++ {
		p.OnActivation(99)
		if sel := p.SelectForMitigation(); sel.OK {
			if sel.Row != 99 {
				t.Fatal("PARA selected wrong row")
			}
			hits++
		}
	}
	if rate := float64(hits) / acts; math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("PARA rate = %v, want 0.25", rate)
	}
}

func TestMithrilTracksHottestRow(t *testing.T) {
	m := NewMithril(8)
	// Hammer row 5 heavily amid noise.
	for i := 0; i < 1000; i++ {
		m.OnActivation(5)
		m.OnActivation(uint32(1000 + i)) // unique noise rows
	}
	sel := m.SelectForMitigation()
	if !sel.OK || sel.Row != 5 {
		t.Fatalf("Mithril selected %+v, want hottest row 5", sel)
	}
}

func TestMithrilMitigationResetsCount(t *testing.T) {
	m := NewMithril(4)
	for i := 0; i < 100; i++ {
		m.OnActivation(1)
	}
	for i := 0; i < 50; i++ {
		m.OnActivation(2)
	}
	if sel := m.SelectForMitigation(); sel.Row != 1 {
		t.Fatalf("first mitigation = row %d, want 1", sel.Row)
	}
	if sel := m.SelectForMitigation(); sel.Row != 2 {
		t.Fatalf("second mitigation = row %d, want 2 (row 1 was reset)", sel.Row)
	}
}

func TestMithrilMisraGriesGuarantee(t *testing.T) {
	// With E entries, any row activated more than total/E times must be
	// present. 3 hot rows out of heavy noise, E=16.
	m := NewMithril(16)
	hot := []uint32{11, 22, 33}
	r := rng.New(11)
	for i := 0; i < 30000; i++ {
		for _, h := range hot {
			m.OnActivation(h)
		}
		m.OnActivation(uint32(100 + r.Intn(1000)))
	}
	found := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		sel := m.SelectForMitigation()
		if sel.OK {
			found[sel.Row] = true
		}
	}
	for _, h := range hot {
		if !found[h] {
			t.Errorf("hot row %d not among top-3 mitigations", h)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	r := rng.New(12)
	trackers := []Tracker{
		NewMINT(4, true, r),
		NewPrIDE(4, 4, r),
		NewPARFM(4, r),
		NewPARA(0.5, r),
		NewMithril(4),
	}
	for _, tr := range trackers {
		for i := 0; i < 16; i++ {
			tr.OnActivation(uint32(i))
		}
		tr.Reset()
		// After Reset, MINT recursive must not return a transitive selection
		// and buffered trackers must be empty. Repeatedly selecting from an
		// idle tracker must never return a stale direct row at level > 1.
		for i := 0; i < 10; i++ {
			if sel := tr.SelectForMitigation(); sel.OK && sel.Level > 1 {
				t.Errorf("%s: stale transitive selection after Reset", tr.Name())
			}
		}
	}
}

func TestNames(t *testing.T) {
	r := rng.New(13)
	cases := []struct {
		tr   Tracker
		want string
	}{
		{NewMINT(4, false, r), "mint-4"},
		{NewMINT(4, true, r), "mint-4+rm"},
		{NewPrIDE(8, 4, r), "pride-8"},
		{NewPARFM(16, r), "parfm-16"},
		{NewMithril(32), "mithril-32"},
	}
	for _, c := range cases {
		if c.tr.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.tr.Name(), c.want)
		}
	}
}

// TestSelectionDeterministic: counter trackers must select independently
// of map iteration order — equal counts tie-break toward the lowest row.
// (Regression: the Mithril/TWiCe max scans once followed Go's randomised
// map order, making the fig18 audit differ run to run.)
func TestSelectionDeterministic(t *testing.T) {
	seq := func() []uint32 {
		m := NewMithril(8)
		tw := NewTWiCe(4)
		var picks []uint32
		for round := 0; round < 50; round++ {
			for r := uint32(0); r < 24; r++ { // every row equally hot: all ties
				m.OnActivation(r)
				tw.OnActivation(r)
			}
			if s := m.SelectForMitigation(); s.OK {
				picks = append(picks, s.Row)
			}
			if s := tw.SelectForMitigation(); s.OK {
				picks = append(picks, s.Row)
			}
		}
		return picks
	}
	a, b := seq(), seq()
	if len(a) == 0 {
		t.Fatal("no selections made")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}
