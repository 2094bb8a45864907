package mitigation

import (
	"testing"

	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// FuzzPolicySpec asserts the policy Factory contract for any selector:
// FromSpec and the builder it returns either succeed or return an error,
// never panic. A built policy then answers one mitigation, standing in for
// the tracker a TH-sized window would nominate: TH picks the aggressor row
// inside the bank, and Recursive makes it a transitive (level 2)
// re-mitigation. Its victims must stay inside the bank and within
// NumRefreshes.
//
// CI runs this for a short wall-clock smoke (-fuzz=FuzzPolicySpec
// -fuzztime=10s); without -fuzz the seed corpus runs as a normal test.
func FuzzPolicySpec(f *testing.F) {
	f.Add("fractal", 4, false)
	f.Add("recursive", 4, true)
	f.Add("baseline", 0, false)
	f.Add("fractal(p=2)", 4, false)
	f.Add("recursive()", 1000000000000, true)
	f.Add("bogus(", -1, false)

	f.Fuzz(func(t *testing.T, selector string, th int, recursive bool) {
		build, err := FromSpec(selector)
		if err != nil {
			return
		}
		p, err := build(rng.New(1))
		if err != nil {
			return
		}
		level := 1
		if recursive {
			level = 2
		}
		row := uint32(uint(th) % rows)
		victims := p.Victims(tracker.Selection{Row: row, Level: level, OK: true}, rows)
		if len(victims) > p.NumRefreshes() {
			t.Fatalf("%s: %d victims, NumRefreshes %d", p.Name(), len(victims), p.NumRefreshes())
		}
		for _, v := range victims {
			if v >= rows {
				t.Fatalf("%s: victim row %d outside the %d-row bank", p.Name(), v, rows)
			}
		}
	})
}
