package sim

import (
	"math"
	"strings"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/workload"
)

// TestRejectedConfigs: every user-reachable misconfiguration must surface
// as a returned error from Run — never a panic, never a silent default.
func TestRejectedConfigs(t *testing.T) {
	valid, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Workload: valid, InstructionsPerCore: 10_000, Seed: 1}

	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring the error must contain
	}{
		{"unknown tracker", func(c *Config) { c.Tracker = "bogus" }, "tracker"},
		{"unknown mapping", func(c *Config) { c.Mapping = "bogus" }, "mapping"},
		{"unknown policy", func(c *Config) { c.Policy = "bogus" }, "policy"},
		{"unknown mechanism", func(c *Config) { c.Mode = 99 }, "mechanism"},
		{"negative TH", func(c *Config) { c.TH = -4 }, "threshold"},
		// parfm's buf defaults to TH; a 2^40-entry buffer is a config
		// error, not a 4 TB allocation.
		{"TH sizes an oversized tracker table", func(c *Config) { c.Tracker, c.TH = "parfm", 1<<40 }, "table cap"},
		{"negative cores", func(c *Config) { c.Cores = -1 }, "core count"},
		{"negative instructions", func(c *Config) { c.InstructionsPerCore = -5 }, "instruction"},
		{"negative PRAC ETh", func(c *Config) { c.PRACETh = -2 }, "PRAC"},
		{"negative retry wait", func(c *Config) { c.RetryWaitNS = -1 }, "retry"},
		{"negative RAA factor", func(c *Config) { c.RAAMaxFactor = -1 }, "RAA"},
		{"zero MemPKI", func(c *Config) { c.Workload.MemPKI = 0 }, "MemPKI"},
		{"NaN MemPKI", func(c *Config) { c.Workload.MemPKI = math.NaN() }, "MemPKI"},
		{"superphysical MemPKI", func(c *Config) { c.Workload.MemPKI = 2000 }, "MemPKI"},
		{"negative write fraction", func(c *Config) { c.Workload.WriteFrac = -0.5 }, "WriteFrac"},
		{"NaN seq fraction", func(c *Config) { c.Workload.SeqFrac = math.NaN() }, "SeqFrac"},
		{"dep fraction above one", func(c *Config) { c.Workload.DepFrac = 1.5 }, "DepFrac"},
		{"zero footprint", func(c *Config) { c.Workload.FootprintMB = 0 }, "footprint"},
		{"negative footprint", func(c *Config) { c.Workload.FootprintMB = -64 }, "footprint"},
		// 4096 cores of 1 TiB each are 2^46 64B lines, past the 8 MB LLC's
		// 2^45-line tag space.
		{"footprint overflows LLC tags", func(c *Config) { c.Cores, c.Workload.FootprintMB = 4096, 1<<20 }, "address space"},
		{"negative streams", func(c *Config) { c.Workload.Streams = -1 }, "stream"},
		{"negative burst", func(c *Config) { c.Workload.Burst = -1 }, "burst"},
		{"fault prob above one", func(c *Config) { c.Fault = fault.Config{ActMissProb: 1.5} }, "ActMissProb"},
		{"NaN fault prob", func(c *Config) { c.Fault = fault.Config{DropMitigationProb: math.NaN()} }, "DropMitigationProb"},
		{"negative panic count", func(c *Config) { c.Fault = fault.Config{PanicAfterActs: -1} }, "PanicAfterActs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked instead of returning an error: %v", v)
				}
			}()
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("Run accepted an invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFaultKeyIsDistinct: a faulty config must cache separately from its
// clean twin, and two different fault configs from each other.
func TestFaultKeyIsDistinct(t *testing.T) {
	valid, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	clean := Config{Workload: valid, InstructionsPerCore: 10_000, Seed: 1}
	faulty := clean
	faulty.Fault = fault.Config{ActMissProb: 0.1, Seed: 3}
	faulty2 := clean
	faulty2.Fault = fault.Config{ActMissProb: 0.2, Seed: 3}
	if clean.Key() == faulty.Key() || faulty.Key() == faulty2.Key() {
		t.Fatal("fault configuration does not participate in the cache key")
	}
}

// TestFaultsPerturbMitigation: injected mitigation drops must reduce the
// victim refreshes a clean run performs, deterministically.
func TestFaultsPerturbMitigation(t *testing.T) {
	valid, err := workload.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workload: valid, InstructionsPerCore: 30_000, Seed: 1, TH: 4,
		Mode: dram.ModeAutoRFM}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = fault.Config{DropMitigationProb: 0.5, Seed: 9}
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Dev.VictimRefreshes >= clean.Dev.VictimRefreshes {
		t.Fatalf("dropped mitigations did not reduce victim refreshes: %d vs clean %d",
			faulty.Dev.VictimRefreshes, clean.Dev.VictimRefreshes)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Dev.VictimRefreshes != faulty.Dev.VictimRefreshes {
		t.Fatal("faulty run is not deterministic")
	}
}
