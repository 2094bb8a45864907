package plugin

import "testing"

// FuzzParseSpec asserts the spec parser's contract for any input: ParseSpec
// and ParseSpecs never panic; a parsed spec whose every key a getter read
// passes Finish; and after a Reset the next build from the same spec starts
// with nothing consumed, so its Finish fails exactly when the spec has
// parameters.
//
// CI runs this for a short wall-clock smoke (-fuzz=FuzzParseSpec
// -fuzztime=10s); without -fuzz the seed corpus runs as a normal test.
func FuzzParseSpec(f *testing.F) {
	f.Add("mint")
	f.Add("pride( window = 8 , fifo = 2 )")
	f.Add("act-miss(p=0.01),chaos(p=0.5)")
	f.Add("mint(window=8,window=9)")
	f.Add("x(a=1,b=2,c=3,d=4,e=5,f=6,g=7,h=8,i=9)")
	f.Add("mint(window=8")
	f.Add("a(b=c(d=e))")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		ParseSpecs(s)
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		for _, p := range sp.params {
			sp.raw(p.key)
		}
		if err := sp.Finish(); err != nil {
			t.Fatalf("%q: every key read, yet Finish = %v", s, err)
		}
		sp.Reset()
		if err := sp.Finish(); (err != nil) != (len(sp.params) > 0) {
			t.Fatalf("%q with %d parameters: Finish after Reset = %v", s, len(sp.params), err)
		}
	})
}
