package main

import (
	"strings"
	"testing"
	"time"
)

// TestDiffGatesRegression pins the gate: a wall-time regression beyond the
// tolerance fails the diff, one within it passes, sub-min-wall rows are
// noise, and rows present on one side only are reported without failing.
func TestDiffGatesRegression(t *testing.T) {
	ms := int64(time.Millisecond)
	base := &report{Experiments: []experiment{
		{ID: "fig3", WallNS: 1000 * ms},
		{ID: "tab3", WallNS: 10 * ms},
		{ID: "gone", WallNS: 100 * ms},
	}}
	fresh := &report{Experiments: []experiment{
		{ID: "fig3", WallNS: 1100 * ms}, // +10%: within tolerance
		{ID: "tab3", WallNS: 30 * ms},   // 3x, but both below min-wall: noise
		{ID: "appb", WallNS: 10 * ms},   // no baseline: new
	}}
	var out strings.Builder
	if diff(&out, base, fresh, 0.25, 50*time.Millisecond) {
		t.Fatalf("in-tolerance report failed the diff:\n%s", out.String())
	}
	s := out.String()
	for _, want := range []string{"(noise)", "new", "gone", "only in baseline"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}

	fresh.Experiments[0].WallNS = 2000 * ms
	out.Reset()
	if !diff(&out, base, fresh, 0.25, 50*time.Millisecond) {
		t.Fatalf("regression not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("regressed row not marked:\n%s", out.String())
	}
}
