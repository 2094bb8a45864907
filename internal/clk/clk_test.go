package clk

import "testing"

func TestConversions(t *testing.T) {
	if NS(1) != 4 {
		t.Fatalf("NS(1) = %d, want 4", NS(1))
	}
	if US(1) != 4000 {
		t.Fatalf("US(1) = %d, want 4000", US(1))
	}
	if MS(1) != 4_000_000 {
		t.Fatalf("MS(1) = %d, want 4000000", MS(1))
	}
	if got := NS(48).Nanoseconds(); got != 48 {
		t.Fatalf("Nanoseconds = %v, want 48", got)
	}
	if got := MS(32).Seconds(); got != 0.032 {
		t.Fatalf("Seconds = %v, want 0.032", got)
	}
}

func TestMinMax(t *testing.T) {
	if Min(NS(3), NS(5)) != NS(3) {
		t.Error("Min wrong")
	}
	if Max(NS(3), NS(5)) != NS(5) {
		t.Error("Max wrong")
	}
	if Min(Never, NS(1)) != NS(1) {
		t.Error("Min with Never wrong")
	}
}

func TestDDR5Table1(t *testing.T) {
	d := DDR5()
	cases := []struct {
		name string
		got  Tick
		ns   int64
	}{
		{"tRCD", d.TRCD, 12},
		{"tRP", d.TRP, 12},
		{"tRAS", d.TRAS, 36},
		{"tRC", d.TRC, 48},
		{"tREFI", d.TREFI, 3900},
		{"tRFC", d.TRFC, 410},
		{"tRFM", d.TRFM, 205},
	}
	for _, c := range cases {
		if c.got != NS(c.ns) {
			t.Errorf("%s = %v, want %dns", c.name, c.got, c.ns)
		}
	}
	if d.TREFW != MS(32) {
		t.Errorf("tREFW = %v, want 32ms", d.TREFW)
	}
	// tRC must equal tRAS + tRP for the closed-page auto-precharge model.
	if d.TRC != d.TRAS+d.TRP {
		t.Errorf("tRC (%v) != tRAS+tRP (%v)", d.TRC, d.TRAS+d.TRP)
	}
}

func TestActsPerTREFI(t *testing.T) {
	// The paper derives a maximum of 72-73 ACTs per tREFI for DDR5.
	d := DDR5()
	got := d.ActsPerTREFI()
	if got < 70 || got > 74 {
		t.Fatalf("ActsPerTREFI = %d, want ≈73", got)
	}
}

func TestMitigationTime(t *testing.T) {
	d := DDR5()
	// Four victim refreshes ≈ 200ns (paper: "four times tRC").
	got := d.MitigationTime(4)
	if got != 4*d.TRC {
		t.Fatalf("MitigationTime(4) = %v, want %v", got, 4*d.TRC)
	}
	if got.Nanoseconds() != 192 {
		t.Fatalf("MitigationTime(4) = %vns, want 192ns", got.Nanoseconds())
	}
}

func TestPRACInflation(t *testing.T) {
	base, prac := DDR5(), PRAC()
	if prac.TRC != base.TRC+base.TRC/10 {
		t.Fatalf("PRAC tRC = %v, want +10%% of %v", prac.TRC, base.TRC)
	}
	if prac.TRP <= base.TRP {
		t.Fatal("PRAC tRP should be inflated")
	}
	// Non-row timings untouched.
	if prac.TRFC != base.TRFC || prac.TREFI != base.TREFI {
		t.Fatal("PRAC must not change refresh timings")
	}
}

func TestTickString(t *testing.T) {
	if s := NS(48).String(); s != "48.00ns" {
		t.Fatalf("String = %q", s)
	}
	if s := Never.String(); s != "never" {
		t.Fatalf("Never.String = %q", s)
	}
}
