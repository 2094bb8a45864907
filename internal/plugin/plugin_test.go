package plugin

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in     string
		name   string
		params map[string]string
	}{
		{"mint", "mint", nil},
		{"  mint  ", "mint", nil},
		{"mint()", "mint", nil},
		{"mint( )", "mint", nil},
		{"mithril(entries=2048)", "mithril", map[string]string{"entries": "2048"}},
		{"pride( window = 8 , fifo = 2 )", "pride", map[string]string{"window": "8", "fifo": "2"}},
		{"act-miss(p=0.01)", "act-miss", map[string]string{"p": "0.01"}},
		{"a_b.c-d(x=-1)", "a_b.c-d", map[string]string{"x": "-1"}},
	}
	for _, tc := range cases {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if sp.Name != tc.name {
			t.Errorf("ParseSpec(%q).Name = %q, want %q", tc.in, sp.Name, tc.name)
		}
		for k, want := range tc.params {
			if got, ok := sp.raw(k); !ok || got != want {
				t.Errorf("ParseSpec(%q) param %s = %q (present %v), want %q", tc.in, k, got, ok, want)
			}
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"", "  ", "MINT", "mint(", "mint)x(", "mint(window=8",
		"mint(window)", "mint(=8)", "mint(window=)", "mint(window=8,window=9)",
		"mint(Window=8)", "m int",
	}
	for _, in := range bad {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", in)
		}
	}
}

func TestParseSpecs(t *testing.T) {
	specs, err := ParseSpecs("act-miss(p=0.01), chaos(p=0.5) ,bit-flip")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Name != "act-miss" || specs[1].Name != "chaos" || specs[2].Name != "bit-flip" {
		t.Fatalf("got %+v", specs)
	}
	// Commas inside parentheses separate parameters, not specs.
	specs, err = ParseSpecs("graphene(entries=256, threshold=32)")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("paren-aware split failed: got %d specs", len(specs))
	}
	for _, bad := range []string{"", "a,,b", ",a", "a,"} {
		if _, err := ParseSpecs(bad); err == nil {
			t.Errorf("ParseSpecs(%q): want error, got nil", bad)
		}
	}
}

func TestGettersAndFinish(t *testing.T) {
	sp, err := ParseSpec("x(i=42, i64=9999999999, f=0.25, b=true)")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Int("i", 0); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := sp.Int64("i64", 0); got != 9999999999 {
		t.Errorf("Int64 = %d", got)
	}
	if got := sp.Float("f", 0); got != 0.25 {
		t.Errorf("Float = %v", got)
	}
	if got := sp.Bool("b", false); !got {
		t.Error("Bool = false")
	}
	if got := sp.Int("absent", 7); got != 7 {
		t.Errorf("absent default = %d", got)
	}
	if err := sp.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
}

func TestFinishReportsConversionError(t *testing.T) {
	sp, _ := ParseSpec("x(i=many)")
	sp.Int("i", 0)
	if err := sp.Finish(); err == nil || !strings.Contains(err.Error(), "many") {
		t.Errorf("Finish = %v, want conversion error naming the value", err)
	}
}

func TestFloatRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"nan", "inf", "-inf", "1e400"} {
		sp, _ := ParseSpec("x(f=" + v + ")")
		sp.Float("f", 0)
		if err := sp.Finish(); err == nil {
			t.Errorf("Float(%q): want error, got nil", v)
		}
	}
}

func TestFinishUnknownParameter(t *testing.T) {
	// Unknown key with declared parameters: lists what is accepted, even
	// when the accepted keys are absent from the spec.
	sp, _ := ParseSpec("x(windw=8)")
	sp.Int("window", 4)
	sp.Bool("recursive", false)
	err := sp.Finish()
	if err == nil || !strings.Contains(err.Error(), `"windw"`) ||
		!strings.Contains(err.Error(), "recursive, window") {
		t.Errorf("Finish = %v, want unknown-parameter error listing accepted keys", err)
	}

	// No getters asked for anything: the plugin takes no parameters.
	sp2, _ := ParseSpec("x(p=1)")
	err = sp2.Finish()
	if err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("Finish = %v, want takes-no-parameters error", err)
	}
}

func TestResetClearsConsumption(t *testing.T) {
	sp, _ := ParseSpec("x(a=1, b=x)")
	if got := sp.Int("a", 0); got != 1 {
		t.Fatalf("build 1: %d", got)
	}
	sp.Int("b", 0)
	if err := sp.Finish(); err == nil {
		t.Fatal("build 1 Finish: want the conversion error of b, got nil")
	}
	// After a Reset the next build starts fresh: nothing consumed, no
	// recorded error.
	sp.Reset()
	if err := sp.Finish(); err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Errorf("build 2 Finish = %v, want an unknown-parameter error (nothing consumed)", err)
	}
	sp.Reset()
	sp.Int("a", 0)
	sp.Float("b", 0)
	sp.Reset()
	sp.Int("a", 0)
	if err := sp.Finish(); err == nil || !strings.Contains(err.Error(), `"b" (accepted: a)`) {
		t.Errorf("build 4 Finish = %v, want b unknown with only a accepted", err)
	}
	// Builds after the first reuse the bookkeeping's storage.
	ok, _ := ParseSpec("x(a=1, b=2)")
	if allocs := testing.AllocsPerRun(10, func() {
		ok.Reset()
		ok.Int("a", 0)
		ok.Int("b", 0)
		ok.Bool("c", false)
		if ok.Finish() != nil {
			t.Fatal("a well-formed build failed Finish")
		}
	}); allocs != 0 {
		t.Errorf("a repeated build allocates %.0f objects, want 0", allocs)
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry[func() int]("widget")
	reg.Register(Info{Name: "b", Doc: "second"}, func() int { return 2 })
	reg.Register(Info{Name: "a", Doc: "first"}, func() int { return 1 })

	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	f, err := reg.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := f(); got != 1 {
		t.Fatalf("Lookup(a)() = %d, want 1", got)
	}
	_, err = reg.Lookup("c")
	if err == nil || !strings.Contains(err.Error(), `unknown widget "c"`) ||
		!strings.Contains(err.Error(), "a, b") {
		t.Fatalf("Lookup(c) = %v, want unknown-widget error listing names", err)
	}
	if infos := reg.Infos(); len(infos) != 2 || infos[0].Name != "a" {
		t.Fatalf("Infos = %v", infos)
	}
}

func TestRegisterPanics(t *testing.T) {
	reg := NewRegistry[int]("widget")
	reg.Register(Info{Name: "a"}, 1)
	for name, inf := range map[string]Info{
		"duplicate": {Name: "a"},
		"invalid":   {Name: "Bad Name"},
		"empty":     {Name: ""},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration: want panic", name)
				}
			}()
			reg.Register(inf, 2)
		}()
	}
}

func TestFprintCatalog(t *testing.T) {
	reg := NewRegistry[int]("widget")
	reg.Register(Info{Name: "frob", Doc: "frobnicates", Params: []ParamSpec{{Name: "n", Default: "4"}}}, 1)
	reg.Register(Info{Name: "zap", Doc: "zaps"}, 2)
	var buf bytes.Buffer
	FprintCatalog(&buf, Section{Title: "widgets", Infos: reg.Infos()})
	out := buf.String()
	for _, want := range []string{"widgets:", "frob", "frobnicates", "[n=4]", "zap"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog output missing %q:\n%s", want, out)
		}
	}
}
