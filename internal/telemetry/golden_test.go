package telemetry_test

// Golden-byte tests for every observability artifact whose bytes are a
// wire format: the Chrome command-trace export, the metrics JSON-lines
// log, the Prometheus exposition and the expvar JSON document. Each
// producer renders a fixed input; the test compares its output byte for
// byte against testdata/golden_<name>. The goldens are never rewritten by the test —
// a mismatch means a wire format changed.

import (
	"bytes"
	"expvar"
	"os"
	"path/filepath"
	"testing"
	"time"

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

var goldenSweep = telemetry.SweepSnapshot{
	JobsDone: 12, JobsTotal: 40, CacheHits: 3, Failed: 1, Events: 9_876_543,
	EventsPerSec: 1_234_567.5, ElapsedMS: 8000, SimElapsedMS: 7500, ETAMS: 19_000,
}

func expvarJSON(name string) []byte { return []byte(expvar.Get(name).String()) }

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
		{"sweep.prom", func() ([]byte, error) {
			var buf bytes.Buffer
			err := telemetry.WriteSweepProm(&buf, goldenSweep)
			return buf.Bytes(), err
		}},
		{"expvar_sweep.json", func() ([]byte, error) {
			st := telemetry.NewSweepStatus()
			st.Update(goldenSweep.JobsDone, goldenSweep.JobsTotal, goldenSweep.CacheHits, goldenSweep.Failed,
				goldenSweep.Events, 8*time.Second, 2*time.Second, 19*time.Second)
			telemetry.PublishSweep(st.Snapshot)
			return expvarJSON("autorfm.sweep"), nil
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
