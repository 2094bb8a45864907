package tracker

import (
	"testing"

	"autorfm/internal/rng"
)

// FuzzTrackerSpec asserts the Factory contract for any selector, TH and
// Recursive flag: FromSpec and the builder it returns either succeed or
// return an error, never panic. Building is where parameter values meet
// allocations, so the builder is called whenever FromSpec succeeds, twice:
// both builds of one selector must agree on the error outcome and the
// Name. A built tracker is driven through one short window. The seeds include
// table sizes that once panicked in makeslice or died out of memory.
//
// CI runs this for a short wall-clock smoke (-fuzz=FuzzTrackerSpec
// -fuzztime=10s); without -fuzz the seed corpus runs as a normal test.
func FuzzTrackerSpec(f *testing.F) {
	f.Add("mint", 4, false)
	f.Add("mint(window=8, recursive=true)", 4, true)
	f.Add("pride(fifo=9223372036854775807)", 4, false)
	f.Add("parfm(buf=9223372036854775807)", 4, false)
	f.Add("graphene(entries=4611686018427387904)", 4, false)
	f.Add("mithril(entries=100000000)", 4, false)
	f.Add("parfm", 1000000000000, false)
	f.Add("para(p=0.5)", -3, false)
	f.Add("twice(threshold=1)", 0, true)
	f.Add("mint(windw=8", 4, false)

	f.Fuzz(func(t *testing.T, selector string, th int, recursive bool) {
		build, err := FromSpec(selector)
		if err != nil {
			return
		}
		trk, err := build(Env{TH: th, Recursive: recursive, R: rng.New(1)})
		again, errAgain := build(Env{TH: th, Recursive: recursive, R: rng.New(1)})
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("%q: first build err %v, second %v", selector, err, errAgain)
		}
		if err != nil {
			return
		}
		if trk.Name() != again.Name() {
			t.Fatalf("%q: first build %s, second %s", selector, trk.Name(), again.Name())
		}
		for row := uint32(0); row < 8; row++ {
			trk.OnActivation(row % 3)
		}
		trk.SelectForMitigation()
		trk.Reset()
	})
}
