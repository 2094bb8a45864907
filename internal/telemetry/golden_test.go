package telemetry_test

// Golden-byte tests for every observability artifact whose bytes are a
// wire format: the Chrome command-trace export and the metrics JSON-lines
// log. Each producer renders a fixed input; the test compares its output
// byte for byte against testdata/golden_<name>. The goldens are never
// rewritten by the test — a mismatch means a wire format changed.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/stats"
	"autorfm/internal/telemetry"
)

// goldenCommandTrace is a 5-entry ring fed 7 commands, so it has wrapped
// (the two oldest are overwritten) and still holds a channel-track REF,
// an instant ALERT and commands on two banks.
func goldenCommandTrace() *telemetry.CommandTrace {
	tm := clk.DDR5()
	tr := telemetry.NewCommandTrace(5)
	tr.SetTiming(tm)
	tr.Record(0, tm.TRAS, telemetry.KindACT, telemetry.CauseDemand, 0, 1)
	tr.Record(tm.TRAS, tm.TRP, telemetry.KindPRE, telemetry.CauseDemand, 0, 1)
	tr.Record(clk.NS(40), tm.TBURST, telemetry.KindRD, telemetry.CauseDemand, 2, 17)
	tr.Record(clk.NS(55), 0, telemetry.KindALERT, telemetry.CauseAutoRFM, 2, 18)
	tr.Record(clk.NS(60), tm.TRFM, telemetry.KindMIT, telemetry.CauseAutoRFM, 2, 18)
	tr.Record(clk.NS(3900), tm.TRFC, telemetry.KindREF, telemetry.CauseREF, telemetry.ChannelTrack, 0)
	tr.Record(clk.NS(4300), tm.TBURST, telemetry.KindWR, telemetry.CauseDemand, 0, 9)
	return tr
}

func TestGoldenBytes(t *testing.T) {
	producers := []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"command_trace.json", func() ([]byte, error) {
			var buf bytes.Buffer
			err := goldenCommandTrace().WriteChrome(&buf)
			return buf.Bytes(), err
		}},
		{"metrics.jsonl", func() ([]byte, error) {
			var buf bytes.Buffer
			s := telemetry.NewEpochSampler(&telemetry.MetricsConfig{Sink: telemetry.NewSink(&buf), Run: "run-1"})
			s.Sample(0, clk.NS(3900), telemetry.Counters{Acts: 120, RowHits: 30, Reads: 140, Writes: 10, REFs: 1, Mitigations: 2},
				telemetry.Gauges{QueueDepth: 4, QueueDepthMax: 2, TrackerLive: 7, TrackerBudget: 16, TrackerSpill: 1})
			s.Flush(clk.NS(3900), clk.NS(5000), telemetry.Counters{Acts: 150, RowHits: 31, Reads: 171, Writes: 12, REFs: 1, RFMs: 1, Alerts: 1, Mitigations: 3},
				telemetry.Gauges{QueueDepth: 1, QueueDepthMax: 1})
			h := stats.NewHistogram()
			for i := 0; i < 20; i++ {
				h.Add(i % 5)
			}
			s.Summary(clk.NS(5000), h)
			return buf.Bytes(), nil
		}},
	}
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			got, err := p.render()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+p.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from its golden:\n got: %q\nwant: %q", p.name, got, want)
			}
		})
	}
}
