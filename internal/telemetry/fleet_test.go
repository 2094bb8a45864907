package telemetry

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSpanBufferRecordAndDrop(t *testing.T) {
	b := NewSpanBuffer(2)
	b.Record(Span{Key: "k", Name: SpanQueue, StartUS: 1, EndUS: 2})
	b.Record(Span{Key: "k", Name: SpanRun, StartUS: 2, EndUS: 5})
	b.Record(Span{Key: "k", Name: SpanProfile, StartUS: 6})
	if got := len(b.Spans()); got != 2 {
		t.Fatalf("Spans() len = %d, want 2", got)
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", b.Dropped())
	}
	b.Reset()
	if len(b.Spans()) != 0 || b.Dropped() != 0 {
		t.Fatalf("Reset did not clear buffer: %d spans, %d dropped", len(b.Spans()), b.Dropped())
	}
}

func TestSpanBufferNilIsNoOp(t *testing.T) {
	var b *SpanBuffer
	b.Record(Span{Key: "k", Name: SpanRun})
	b.Reset()
	if b.Spans() != nil || b.Dropped() != 0 {
		t.Fatal("nil SpanBuffer not inert")
	}
}

// TestSpanRecordDisabledZeroAllocs is the probes-off guard: recording
// into a nil buffer must not allocate. CI's bench-smoke job runs it.
func TestSpanRecordDisabledZeroAllocs(t *testing.T) {
	var b *SpanBuffer
	allocs := testing.AllocsPerRun(1000, func() {
		b.Record(Span{Key: "k", Name: SpanRun, StartUS: 1, EndUS: 2})
	})
	if allocs != 0 {
		t.Fatalf("disabled span record allocates %.1f/op, want 0", allocs)
	}
}

// TestSpanRecordEnabledZeroAllocs guards the hot recording path with
// probes on: appending into a non-full buffer must not allocate either.
func TestSpanRecordEnabledZeroAllocs(t *testing.T) {
	b := NewSpanBuffer(8)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Reset()
		b.Record(Span{Key: "key", Name: SpanRun, Worker: "w1", StartUS: 1, EndUS: 2})
		b.Record(Span{Key: "key", Name: SpanQueue, Worker: "w1", StartUS: 2, EndUS: 3})
	})
	if allocs != 0 {
		t.Fatalf("enabled span record allocates %.1f/op, want 0", allocs)
	}
}

func TestWriteSpanLogAndValidate(t *testing.T) {
	spans := []Span{
		{Key: "job1", Name: SpanSubmit, StartUS: 100},
		{Key: "job1", Name: SpanLease, Worker: "w1", Attempt: 1, LeaseID: 7, StartUS: 150, EndUS: 900},
		{Key: "job1", Name: SpanRun, Worker: "w1", StartUS: 200, EndUS: 800},
		{Key: "job1", Name: SpanUpload, Worker: "w1", StartUS: 900},
	}
	var buf bytes.Buffer
	if err := WriteSpanLog(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != len(spans) {
		t.Fatalf("span log has %d lines, want %d", len(lines), len(spans))
	}
	for i, line := range lines {
		if err := ValidateSpanLine(line); err != nil {
			t.Errorf("line %d: %v", i, err)
		}
	}
}

func TestValidateSpanLineErrors(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"bad json", `{"schema":`},
		{"wrong schema", `{"schema":"bogus/v9","key":"k","name":"run","t_start_us":1}`},
		{"unknown name", `{"schema":"autorfm-spans/v1","key":"k","name":"teleport","t_start_us":1}`},
		{"no key", `{"schema":"autorfm-spans/v1","name":"run","t_start_us":1}`},
		{"negative start", `{"schema":"autorfm-spans/v1","key":"k","name":"run","t_start_us":-5}`},
		{"end before start", `{"schema":"autorfm-spans/v1","key":"k","name":"run","t_start_us":10,"t_end_us":5}`},
	}
	for _, tc := range cases {
		if err := ValidateSpanLine([]byte(tc.line)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

func TestSortSpansDeterministic(t *testing.T) {
	spans := []Span{
		{Key: "b", Name: SpanRun, StartUS: 10},
		{Key: "a", Name: SpanSubmit, StartUS: 5},
		{Key: "a", Name: SpanLease, StartUS: 10},
	}
	SortSpans(spans)
	if spans[0].Key != "a" || spans[0].StartUS != 5 {
		t.Fatalf("unexpected first span %+v", spans[0])
	}
	if spans[1].Key != "a" || spans[1].Name != SpanLease {
		t.Fatalf("tie not broken by key: %+v", spans[1])
	}
}

func TestWriteChromeSpansLoadsAsTrace(t *testing.T) {
	spans := []Span{
		{Key: "job1", Name: SpanSubmit, StartUS: 1_000_000},
		{Key: "job1", Name: SpanLease, Worker: "w2", Attempt: 1, StartUS: 1_000_050, EndUS: 1_000_900},
		{Key: "job1", Name: SpanRun, Worker: "w2", StartUS: 1_000_100, EndUS: 1_000_800},
		{Key: "job2", Name: SpanLease, Worker: "w1", Attempt: 1, StartUS: 1_000_060, EndUS: 1_000_500},
		{Key: "job1", Name: SpanRequeue, StartUS: 1_000_950},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("chrome span trace invalid: %v", err)
	}
	out := buf.String()
	// One track per worker, coordinator on tid 0, workers sorted.
	for _, want := range []string{`"coordinator"`, `"worker w1"`, `"worker w2"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing track name %s", want)
		}
	}
}

func TestFlightStoreRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			fs, err := NewFlightStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			rec := &FlightRecord{
				Key:    "job1",
				Worker: "w1",
				Error:  "panic: boom",
				TimeUS: 12345,
				Stack:  "goroutine 1 [running]:\nmain.main()",
			}
			id, err := fs.Put(rec)
			if err != nil {
				t.Fatal(err)
			}
			id2, err := fs.Put(rec)
			if err != nil {
				t.Fatal(err)
			}
			if id != id2 {
				t.Fatalf("content address unstable: %q vs %q", id, id2)
			}
			got, err := fs.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Key != rec.Key || got.Error != rec.Error || got.Schema != FlightSchema {
				t.Fatalf("round trip mismatch: %+v", got)
			}
			ids, err := fs.IDs()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 1 || ids[0] != id {
				t.Fatalf("IDs() = %v, want [%s]", ids, id)
			}
			if _, err := fs.Get("doesnotexist"); err == nil {
				t.Fatal("Get of missing record succeeded")
			}
		})
	}
}

func TestValidateFlightErrors(t *testing.T) {
	cases := []struct {
		name string
		blob string
	}{
		{"bad json", `{`},
		{"wrong schema", `{"schema":"x","key":"k","error":"e","t_capture_us":1}`},
		{"no key", `{"schema":"autorfm-flight/v1","error":"e","t_capture_us":1}`},
		{"no error", `{"schema":"autorfm-flight/v1","key":"k","t_capture_us":1}`},
	}
	for _, tc := range cases {
		if err := ValidateFlight([]byte(tc.blob)); err == nil {
			t.Errorf("%s: validated, want error", tc.name)
		}
	}
}

func TestLastLineWriterKeepsLatest(t *testing.T) {
	var w LastLineWriter
	if w.Last() != nil {
		t.Fatal("empty writer has a last line")
	}
	w.Write([]byte(`{"epoch":0}` + "\n"))
	w.Write([]byte(`{"epoch":1}` + "\n"))
	if got := string(w.Last()); got != `{"epoch":1}` {
		t.Fatalf("Last() = %q", got)
	}
}

func TestCaptureBuildFlight(t *testing.T) {
	c := NewCapture()
	// Fill the trace ring past MaxFlightCommands so the tail bound kicks in.
	for i := 0; i < MaxFlightCommands+10; i++ {
		c.Trace().Record(1, 2, KindACT, CauseDemand, 3, uint32(i))
	}
	c.Sink().WriteRecord(map[string]int{"epoch": 41})
	c.Sink().WriteRecord(map[string]int{"epoch": 42})
	f := c.BuildFlight("job1", "w1", 2, "timeout after 5s", []byte("stack trace here"))
	if len(f.Commands) != MaxFlightCommands {
		t.Fatalf("flight has %d commands, want %d", len(f.Commands), MaxFlightCommands)
	}
	if f.CommandsDropped != 10 {
		t.Fatalf("CommandsDropped = %d, want 10", f.CommandsDropped)
	}
	if string(f.LastMetrics) != `{"epoch":42}` {
		t.Fatalf("LastMetrics = %s", f.LastMetrics)
	}
	if f.Attempt != 2 || f.Worker != "w1" || f.Stack != "stack trace here" {
		t.Fatalf("flight fields wrong: %+v", f)
	}
	if f.Goroutines == "" || f.NumGoroutine == 0 || f.HeapBytes == 0 {
		t.Fatal("runtime stats not captured")
	}
	// Last command in the tail is the most recent one recorded.
	if f.Commands[len(f.Commands)-1].Row != uint32(MaxFlightCommands+9) {
		t.Fatalf("tail is not the most recent commands: %+v", f.Commands[len(f.Commands)-1])
	}
}

func TestCaptureProfile(t *testing.T) {
	c := NewCapture()
	if c.Profile() != nil {
		t.Fatal("fresh capture has a profile")
	}
	c.CaptureProfile()
	p := c.Profile()
	if len(p) == 0 || !strings.Contains(string(p), "goroutine") {
		t.Fatalf("profile capture empty or unrecognizable: %d bytes", len(p))
	}
}

func TestFleetAggregation(t *testing.T) {
	fl := NewFleet()
	now := time.Unix(1000, 0)
	fl.SetClock(func() time.Time { return now })

	// Two heartbeats 1s apart with a 5M event delta → 5M events/sec.
	fl.Heartbeat("w1", 0, &WorkerMetrics{Events: 0, JobsDone: 0})
	now = now.Add(time.Second)
	fl.Heartbeat("w1", 2*time.Second, &WorkerMetrics{Events: 5_000_000, JobsDone: 1, Goroutines: 9, HeapBytes: 1 << 20})
	fl.Seen("w2")

	for i := 0; i < 10; i++ {
		fl.JobDone("tab5/misra", time.Duration(100+i*10)*time.Millisecond)
	}

	snap := fl.Snapshot()
	if len(snap.Workers) != 2 || snap.Workers[0].Worker != "w1" || snap.Workers[1].Worker != "w2" {
		t.Fatalf("workers = %+v", snap.Workers)
	}
	w1 := snap.Workers[0]
	if w1.EventsPerSec < 4_000_000 || w1.EventsPerSec > 6_000_000 {
		t.Fatalf("EventsPerSec = %g, want ~5M", w1.EventsPerSec)
	}
	if w1.LeaseAgeMS != 2000 || w1.Events != 5_000_000 || w1.JobsDone != 1 {
		t.Fatalf("w1 view = %+v", w1)
	}
	if snap.Requeues != 0 || snap.Steals != 0 {
		t.Fatalf("requeues/steals = %d/%d; the coordinator owns those counters", snap.Requeues, snap.Steals)
	}
	if len(snap.Families) != 1 {
		t.Fatalf("families = %+v", snap.Families)
	}
	fam := snap.Families[0]
	if fam.Jobs != 10 || fam.P50MS < 100 || fam.P99MS < fam.P50MS {
		t.Fatalf("family view = %+v", fam)
	}
}

func TestFleetStallCheck(t *testing.T) {
	fl := NewFleet()
	// Below MinStallSamples: never a stall.
	for i := 0; i < MinStallSamples-1; i++ {
		fl.JobDone("fam", 100*time.Millisecond)
	}
	if fl.StallCheck("fam", time.Hour) {
		t.Fatal("stall flagged below the sample floor")
	}
	fl.JobDone("fam", 100*time.Millisecond)
	if fl.StallCheck("fam", 50*time.Millisecond) {
		t.Fatal("stall flagged under the p99")
	}
	if !fl.StallCheck("fam", time.Hour) {
		t.Fatal("obvious stall not flagged")
	}
	if got := fl.Snapshot().Families[0].Stalls; got != 1 {
		t.Fatalf("stall count = %d, want 1", got)
	}
	if fl.StallCheck("unknown-family", time.Hour) {
		t.Fatal("stall flagged for unknown family")
	}
}

func TestFleetNilIsInert(t *testing.T) {
	var fl *Fleet
	fl.Heartbeat("w", 0, nil)
	fl.Seen("w")
	fl.JobDone("f", time.Second)
	if fl.StallCheck("f", time.Hour) {
		t.Fatal("nil fleet flagged a stall")
	}
	if snap := fl.Snapshot(); len(snap.Workers) != 0 {
		t.Fatal("nil fleet snapshot not empty")
	}
}

func TestWriteFleetProm(t *testing.T) {
	fl := NewFleet()
	fl.Heartbeat(`w"1\`, time.Second, &WorkerMetrics{Events: 10})
	for i := 0; i < 10; i++ {
		fl.JobDone("tab5/misra", 100*time.Millisecond)
	}
	snap := fl.Snapshot()
	snap.Requeues = 1
	var buf bytes.Buffer
	if err := WriteFleetProm(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE autorfm_fleet_workers gauge",
		"autorfm_fleet_workers 1",
		"autorfm_fleet_requeues_total 1",
		`autorfm_worker_lease_age_ms{worker="w\"1\\"} 1000`,
		`autorfm_family_latency_ms{family="tab5/misra",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q\n%s", want, out)
		}
	}
}

func TestMetricsHandlers(t *testing.T) {
	fl := NewFleet()
	fl.Seen("w1")
	rr := httptest.NewRecorder()
	MetricsHandler(func(w io.Writer) error { return WriteFleetProm(w, fl.Snapshot()) }).
		ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("fleet /metrics content type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "autorfm_fleet_workers 1") {
		t.Fatalf("fleet /metrics body:\n%s", rr.Body.String())
	}

	st := NewSweepStatus()
	st.Update(3, 10, 1, 0, 42, time.Second, time.Second, 2*time.Second)
	rr = httptest.NewRecorder()
	MetricsHandler(func(w io.Writer) error { return WriteSweepProm(w, st.Snapshot()) }).
		ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"autorfm_sweep_jobs_done 3",
		"autorfm_sweep_jobs_total 10",
		"autorfm_sweep_events_total 42",
		"autorfm_sweep_events_per_sec 42",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("sweep /metrics missing %q\n%s", want, body)
		}
	}
}

func TestPublishFleet(t *testing.T) {
	fl := NewFleet()
	fl.Seen("w1")
	PublishFleet(fl.Snapshot) // must not panic on repeated calls
	PublishFleet(fl.Snapshot)
}
