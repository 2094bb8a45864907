package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/telemetry"
	"autorfm/internal/workload"
)

func telemetryTestConfig() Config {
	p, err := workload.ByName("triad")
	if err != nil {
		panic(err)
	}
	return Config{
		Workload:            p,
		Mode:                dram.ModeAutoRFM,
		InstructionsPerCore: 30_000,
		Seed:                7,
	}
}

// tailWriter retains only the bytes after the last newline seen, a bounded
// last-line sink: O(1) memory no matter how long the run streams metrics.
type tailWriter struct {
	tail []byte
	n    int
}

func (w *tailWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if i := bytes.LastIndexByte(p, '\n'); i >= 0 {
		w.tail = append(w.tail[:0], p[i+1:]...)
	} else {
		w.tail = append(w.tail, p...)
	}
	return len(p), nil
}

// TestTelemetryDoesNotChangeResult pins the package's observational
// guarantee: a probed run produces a Result identical to the unprobed run —
// same finish times, same statistics, and the same Events count even though
// the sampler itself rides the event queue. Covered probe shapes: the full
// capture a -metrics/-trace run arms, and a flight-recorder shape (a tiny
// wrapping command ring plus a bounded tail sink), which must be just as
// invisible even while the ring drops entries.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	plain := MustRun(telemetryTestConfig())

	var full bytes.Buffer
	var tail tailWriter
	flightRing := telemetry.NewCommandTrace(256)
	cases := []struct {
		name  string
		probe *telemetry.Probe
		check func(t *testing.T)
	}{
		{
			name: "full",
			probe: &telemetry.Probe{
				Metrics: &telemetry.MetricsConfig{Sink: telemetry.NewSink(&full), Run: "probe"},
				Trace:   telemetry.NewCommandTrace(1 << 14),
			},
			check: func(t *testing.T) {
				if full.Len() == 0 {
					t.Fatal("probed run emitted no metrics")
				}
			},
		},
		{
			name: "flight",
			probe: &telemetry.Probe{
				Metrics: &telemetry.MetricsConfig{Sink: telemetry.NewSink(&tail), Run: "flight"},
				Trace:   flightRing,
			},
			check: func(t *testing.T) {
				if tail.n == 0 {
					t.Fatal("flight-style probe emitted no metrics")
				}
				if flightRing.Dropped() == 0 {
					t.Fatal("flight ring never wrapped; case does not exercise bounded capture")
				}
				if flightRing.Len() != 256 {
					t.Fatalf("flight ring holds %d commands, want full capacity 256", flightRing.Len())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := telemetryTestConfig()
			cfg.Telemetry = tc.probe
			got := MustRun(cfg)
			tc.check(t)

			// Compare everything except Config (which differs by the probe
			// pointer).
			got.Config = Config{}
			want := plain
			want.Config = Config{}
			if got.Elapsed != want.Elapsed || got.Instructions != want.Instructions {
				t.Fatalf("probed run diverged: elapsed %v vs %v, instr %d vs %d",
					got.Elapsed, want.Elapsed, got.Instructions, want.Instructions)
			}
			if got.Events != want.Events {
				t.Fatalf("probed run dispatched %d events vs %d unprobed (sampler events must be subtracted)",
					got.Events, want.Events)
			}
			if got.MC != want.MC {
				t.Fatalf("controller stats diverged:\nprobed   %+v\nunprobed %+v", got.MC, want.MC)
			}
			if got.Dev != want.Dev {
				t.Fatalf("device stats diverged:\nprobed   %+v\nunprobed %+v", got.Dev, want.Dev)
			}
			if got.Cache != want.Cache {
				t.Fatalf("cache stats diverged:\nprobed   %+v\nunprobed %+v", got.Cache, want.Cache)
			}
			for i := range got.FinishTimes {
				if got.FinishTimes[i] != want.FinishTimes[i] {
					t.Fatalf("core %d finish time diverged: %v vs %v", i, got.FinishTimes[i], want.FinishTimes[i])
				}
			}
		})
	}
}

// TestEpochRecordsSumToTotals pins the acceptance criterion: a quick run
// emits at least one epoch record per tREFI window, and the per-epoch
// deltas sum exactly to the end-of-run memctrl.Stats / device totals.
func TestEpochRecordsSumToTotals(t *testing.T) {
	var buf bytes.Buffer
	cfg := telemetryTestConfig()
	cfg.Telemetry = &telemetry.Probe{
		Metrics: &telemetry.MetricsConfig{Sink: telemetry.NewSink(&buf), Run: "sum"},
	}
	res := MustRun(cfg)

	var (
		sum     telemetry.Counters
		epochs  int
		summary *telemetry.SummaryRecord
		lastEnd float64
	)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if err := telemetry.ValidateMetricsLine(sc.Bytes()); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			t.Fatal(err)
		}
		switch kind.Kind {
		case "epoch":
			var r telemetry.EpochRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			if r.Epoch != epochs {
				t.Fatalf("epoch indices out of order: got %d, want %d", r.Epoch, epochs)
			}
			if r.StartNS != lastEnd {
				t.Fatalf("epoch %d starts at %v, previous ended at %v", r.Epoch, r.StartNS, lastEnd)
			}
			lastEnd = r.EndNS
			epochs++
			sum.Acts += r.Acts
			sum.RowHits += r.RowHits
			sum.Reads += r.Reads
			sum.Writes += r.Writes
			sum.REFs += r.REFs
			sum.RFMs += r.RFMs
			sum.Alerts += r.Alerts
			sum.PRACBackoffs += r.PRACBackoffs
			sum.Mitigations += r.Mitigations
			sum.VictimRefreshes += r.VictimRefreshes
			sum.ABOAlerts += r.ABOAlerts
		case "summary":
			summary = new(telemetry.SummaryRecord)
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				t.Fatal(err)
			}
		}
	}

	// At least one record per completed tREFI window.
	trefiNS := clk.DDR5().TREFI.Nanoseconds()
	if wantMin := int(math.Floor(res.Elapsed.Nanoseconds() / trefiNS)); epochs < wantMin {
		t.Fatalf("run of %v emitted %d epochs, want >= %d (one per tREFI)", res.Elapsed, epochs, wantMin)
	}

	want := telemetry.Counters{
		Acts:            res.MC.Acts,
		RowHits:         res.MC.RowHits,
		Reads:           res.MC.Reads,
		Writes:          res.MC.Writes,
		REFs:            res.MC.REFs,
		RFMs:            res.MC.RFMs,
		Alerts:          res.MC.Alerts,
		PRACBackoffs:    res.MC.PRACBackoffs,
		Mitigations:     res.Dev.Mitigations,
		VictimRefreshes: res.Dev.VictimRefreshes,
		ABOAlerts:       res.Dev.ABOAlerts,
	}
	if sum != want {
		t.Fatalf("epoch deltas do not sum to end-of-run totals:\nsum   %+v\ntotal %+v", sum, want)
	}

	if summary == nil {
		t.Fatal("no summary record emitted")
	}
	if summary.Epochs != epochs {
		t.Fatalf("summary claims %d epochs, stream holds %d", summary.Epochs, epochs)
	}
	if summary.QueueSamples != res.MC.Reads+res.MC.Writes {
		t.Fatalf("queue histogram saw %d samples, want one per column access (%d)",
			summary.QueueSamples, res.MC.Reads+res.MC.Writes)
	}
}

// TestTelemetryTraceIsValidChromeJSON runs a probed simulation and checks
// the exported trace parses as Chrome trace-event JSON with the expected
// command mix.
func TestTelemetryTraceIsValidChromeJSON(t *testing.T) {
	tr := telemetry.NewCommandTrace(1 << 15)
	cfg := telemetryTestConfig()
	cfg.Telemetry = &telemetry.Probe{Trace: tr}
	res := MustRun(cfg)

	if tr.Len() == 0 {
		t.Fatal("trace captured no commands")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}

	// The retained window must contain the command kinds the run performed:
	// with no ring wrap, ACT counts match the controller's totals exactly.
	counts := map[telemetry.CommandKind]uint64{}
	for _, c := range tr.Commands() {
		counts[c.Kind]++
	}
	if tr.Dropped() == 0 {
		if counts[telemetry.KindACT] != res.MC.Acts {
			t.Fatalf("trace holds %d ACTs, controller issued %d", counts[telemetry.KindACT], res.MC.Acts)
		}
		if counts[telemetry.KindREF] != res.MC.REFs {
			t.Fatalf("trace holds %d REFs, controller issued %d", counts[telemetry.KindREF], res.MC.REFs)
		}
		if got := counts[telemetry.KindRD] + counts[telemetry.KindWR]; got != res.MC.Reads+res.MC.Writes {
			t.Fatalf("trace holds %d column accesses, controller served %d", got, res.MC.Reads+res.MC.Writes)
		}
		if counts[telemetry.KindALERT] != res.MC.Alerts {
			t.Fatalf("trace holds %d ALERTs, controller saw %d", counts[telemetry.KindALERT], res.MC.Alerts)
		}
		if counts[telemetry.KindMIT] == 0 && res.Dev.Mitigations > 0 {
			t.Fatal("device performed mitigations but none were traced")
		}
	}
}

// TestTelemetryMetricsWithoutSink checks the misconfiguration is a returned
// error, not a panic deep in the run.
func TestTelemetryMetricsWithoutSink(t *testing.T) {
	cfg := telemetryTestConfig()
	cfg.Telemetry = &telemetry.Probe{Metrics: &telemetry.MetricsConfig{}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("metrics without a sink accepted")
	}
	cfg = telemetryTestConfig()
	var buf bytes.Buffer
	cfg.Telemetry = &telemetry.Probe{Metrics: &telemetry.MetricsConfig{
		Sink: telemetry.NewSink(&buf), EpochNS: -5,
	}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative epoch accepted")
	}
}

// TestTelemetryExcludedFromKey pins the caching contract: a probed config
// shares its memoization key with the unprobed config, because telemetry
// does not influence the Result.
func TestTelemetryExcludedFromKey(t *testing.T) {
	plain := telemetryTestConfig()
	probed := telemetryTestConfig()
	probed.Telemetry = &telemetry.Probe{Trace: telemetry.NewCommandTrace(16)}
	if plain.Key() != probed.Key() {
		t.Fatal("telemetry probe changed the config key")
	}
}

// TestCustomEpochLength checks EpochNS overrides the tREFI default.
func TestCustomEpochLength(t *testing.T) {
	var buf bytes.Buffer
	cfg := telemetryTestConfig()
	cfg.Telemetry = &telemetry.Probe{
		Metrics: &telemetry.MetricsConfig{Sink: telemetry.NewSink(&buf), EpochNS: 1000},
	}
	res := MustRun(cfg)
	epochs := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"kind":"epoch"`)) {
			epochs++
		}
	}
	if wantMin := int(res.Elapsed.Nanoseconds() / 1000); epochs < wantMin {
		t.Fatalf("1000ns epochs over %v: got %d records, want >= %d", res.Elapsed, epochs, wantMin)
	}
}
