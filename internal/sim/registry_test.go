package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
	"autorfm/internal/workload"
)

// resultBytes runs cfg and returns the Result as JSON with the Config
// cleared, so registry-selected and directly-constructed runs (whose
// configs legitimately differ) can be compared byte for byte.
func resultBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Config = Config{}
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// directTrackers maps every registered tracker name to the construction the
// simulator hard-wired before the registry existed, at the defaults the
// registry declares for TH=4. A name registered without an entry here fails
// the test, so new trackers must extend the round-trip coverage.
var directTrackers = map[string]func(bank int, r *rng.Source) tracker.Tracker{
	"mint":     func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewMINT(4, false, r) },
	"pride":    func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewPrIDE(4, 4, r) },
	"parfm":    func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewPARFM(4, r) },
	"para":     func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewPARA(0.25, r) },
	"mithril":  func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewMithril(1024) },
	"graphene": func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewGraphene(1024, 64) },
	"twice":    func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewTWiCe(1000) },
}

// TestRegistryRoundTrip: for every registered tracker, selecting it by name
// produces a Result byte-identical to constructing it directly through the
// NewTracker hook, across several seeds. This is the registry's core
// guarantee — config-by-string is sugar, not a different simulation.
func TestRegistryRoundTrip(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tracker.Names() {
		direct, ok := directTrackers[name]
		if !ok {
			t.Fatalf("tracker %q has no direct constructor in this test; add one to keep round-trip coverage complete", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				base := Config{
					Workload:            prof,
					Mode:                dram.ModeAutoRFM,
					TH:                  4,
					Policy:              "fractal",
					InstructionsPerCore: 20_000,
					Seed:                seed,
				}
				byName := base
				byName.Tracker = name
				byHook := base
				byHook.NewTracker = direct
				got, want := resultBytes(t, byName), resultBytes(t, byHook)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: registry-selected %q differs from direct construction", seed, name)
				}
			}
		})
	}
}

// TestRegistryParamsRoundTrip: parameterized specs bind the declared
// parameters, nothing else.
func TestRegistryParamsRoundTrip(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec   string
		direct func(bank int, r *rng.Source) tracker.Tracker
	}{
		{"mint(window=8)", func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewMINT(8, false, r) }},
		{"pride(window=8, fifo=2)", func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewPrIDE(8, 2, r) }},
		{"graphene(entries=256, threshold=32)", func(_ int, r *rng.Source) tracker.Tracker { return tracker.NewGraphene(256, 32) }},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			base := Config{
				Workload:            prof,
				Mode:                dram.ModeAutoRFM,
				TH:                  4,
				Policy:              "fractal",
				InstructionsPerCore: 20_000,
				Seed:                1,
			}
			byName := base
			byName.Tracker = tc.spec
			byHook := base
			byHook.NewTracker = tc.direct
			if !bytes.Equal(resultBytes(t, byName), resultBytes(t, byHook)) {
				t.Fatalf("spec %q differs from direct construction", tc.spec)
			}
		})
	}
}

// TestPolicyRoundTrip: policy selection by name matches the NewPolicy hook.
func TestPolicyRoundTrip(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range mitigation.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := Config{
				Workload:            prof,
				Mode:                dram.ModeAutoRFM,
				TH:                  4,
				InstructionsPerCore: 20_000,
				Seed:                2,
			}
			byName := base
			byName.Policy = name
			byHook := base
			byHook.NewPolicy = func(_ int, r *rng.Source) mitigation.Policy {
				p, err := mitigation.ByName(name, r)
				if err != nil {
					panic(err)
				}
				return p
			}
			if !bytes.Equal(resultBytes(t, byName), resultBytes(t, byHook)) {
				t.Fatalf("registry-selected policy %q differs from direct construction", name)
			}
		})
	}
}

// TestRegistryErrors: misspelled names and bad parameters fail config
// validation with descriptive errors, before any simulation starts.
func TestRegistryErrors(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workload: prof, InstructionsPerCore: 10_000, Seed: 1}

	cases := []struct {
		name string
		mut  func(*Config)
		want []string // substrings the error must contain
	}{
		{"unknown tracker lists registered", func(c *Config) { c.Tracker = "nope" },
			[]string{"unknown tracker", "mint", "pride"}},
		{"unknown tracker param lists accepted", func(c *Config) { c.Tracker = "mint(windw=8)" },
			[]string{`unknown parameter "windw"`, "window"}},
		{"tracker param out of range", func(c *Config) { c.Tracker = "mint(window=0)" },
			[]string{"mint", "window 0"}},
		{"tracker param not a number", func(c *Config) { c.Tracker = "mithril(entries=many)" },
			[]string{"entries", "many"}},
		{"fifo above the table cap", func(c *Config) { c.Tracker = "pride(fifo=9223372036854775807)" },
			[]string{"pride", "fifo", "table cap"}},
		{"buf above the table cap", func(c *Config) { c.Tracker = "parfm(buf=9223372036854775807)" },
			[]string{"parfm", "buf", "table cap"}},
		{"entries above the table cap", func(c *Config) { c.Tracker = "graphene(entries=4611686018427387904)" },
			[]string{"graphene", "entries", "table cap"}},
		{"counter table above the cap", func(c *Config) { c.Tracker = "mithril(entries=100000000)" },
			[]string{"mithril", "entries", "table cap"}},
		{"malformed spec", func(c *Config) { c.Tracker = "mint(window=8" },
			[]string{"tracker"}},
		{"unknown policy lists registered", func(c *Config) { c.Policy = "nope" },
			[]string{"unknown policy", "fractal"}},
		{"policy takes no params", func(c *Config) { c.Policy = "fractal(p=2)" },
			[]string{"fractal", "parameter"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("want validation error, got nil")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not contain %q", err, want)
				}
			}
		})
	}
}

// TestHookConfigsNotMemoizable: caller-supplied constructors make a config
// only as deterministic as the closure, so it must not carry a cache key.
func TestHookConfigsNotMemoizable(t *testing.T) {
	prof, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workload: prof, InstructionsPerCore: 10_000, Seed: 1}
	if base.Key() == "" {
		t.Fatal("plain config unexpectedly has no key")
	}
	withTrk := base
	withTrk.NewTracker = directTrackers["mint"]
	if withTrk.Key() != "" {
		t.Error("config with NewTracker hook must have no cache key")
	}
	withPol := base
	withPol.NewPolicy = func(_ int, r *rng.Source) mitigation.Policy { return mitigation.NewBaseline() }
	if withPol.Key() != "" {
		t.Error("config with NewPolicy hook must have no cache key")
	}
}
