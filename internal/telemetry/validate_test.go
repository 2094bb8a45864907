package telemetry_test

// CI's observability smoke job generates metrics and trace files with the
// real binaries, then runs this test against them:
//
//	AUTORFM_METRICS_FILE=m.jsonl AUTORFM_TRACE_FILE=t.json \
//	    go test -run TestValidateFiles ./internal/telemetry
//
// Keeping the validator a Go test keeps CI free of external JSON tooling
// and keeps the schema check identical to what the unit tests enforce.

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autorfm/internal/telemetry"
)

func TestValidateFiles(t *testing.T) {
	mf := os.Getenv("AUTORFM_METRICS_FILE")
	tf := os.Getenv("AUTORFM_TRACE_FILE")
	if mf == "" && tf == "" {
		t.Skip("set AUTORFM_METRICS_FILE / AUTORFM_TRACE_FILE to validate generated telemetry")
	}
	if mf != "" {
		f, err := os.Open(mf)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := telemetry.ValidateFile(f)
		if err != nil {
			t.Errorf("%s: %v", mf, err)
		}
		if rep.TornTail {
			t.Errorf("%s: torn final line (writer killed mid-record?)", mf)
		}
		if rep.Kinds["epoch"] == 0 {
			t.Errorf("%s holds no epoch records (%d lines)", mf, rep.Lines)
		}
		t.Logf("%s: %d valid lines %v", mf, rep.Lines, rep.Kinds)
	}
	if tf != "" {
		data, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateTraceFile(data); err != nil {
			t.Errorf("%s: %v", tf, err)
		}
		t.Logf("%s: %d bytes of valid Chrome trace JSON", tf, len(data))
	}
}

// validEpochLine is a fixture record passing ValidateMetricsLine.
const validEpochLine = `{"schema":"autorfm-metrics/v1","kind":"epoch","epoch":0,` +
	`"t_start_ns":0,"t_end_ns":3900,"acts":1,"row_hits":0,"reads":1,"writes":0,` +
	`"refs":0,"rfms":0,"alerts":0,"prac_backoffs":0,"mitigations":0,` +
	`"victim_refreshes":0,"abo_alerts":0,"queue_depth":0,"queue_depth_max":0,` +
	`"tracker_live":0,"tracker_budget":0,"tracker_spill":0}`

// TestValidateMetricsFileDamage: the JSON-lines file validator tolerates
// exactly the damage a killed writer leaves (a torn final line) and
// rejects everything else — empty files, wrong-schema headers, damaged
// interior lines.
func TestValidateMetricsFileDamage(t *testing.T) {
	torn := validEpochLine[:40] // cut mid-record: not valid JSON
	cases := []struct {
		name     string
		data     string
		wantErr  bool
		wantTorn bool
		wantN    int
	}{
		{name: "clean", data: validEpochLine + "\n", wantN: 1},
		{name: "clean no trailing newline", data: validEpochLine, wantN: 1},
		{name: "torn last line", data: validEpochLine + "\n" + torn, wantTorn: true, wantN: 1},
		{name: "torn last line after newline-terminated record", data: validEpochLine + "\n" + torn + "\n", wantTorn: true, wantN: 1},
		{name: "empty file", data: "", wantErr: true},
		{name: "whitespace only", data: "\n", wantErr: true},
		{name: "wrong-schema header", data: `{"schema":"other/v2","kind":"epoch"}` + "\n" + validEpochLine + "\n", wantErr: true},
		{name: "torn first and only line", data: torn, wantErr: true},
		{name: "damaged interior line", data: validEpochLine + "\n" + torn + "\n" + validEpochLine + "\n", wantErr: true},
		{name: "valid JSON but bad schema tail", data: validEpochLine + "\n" + `{"schema":"autorfm-metrics/v1","kind":"bogus"}`, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := telemetry.ValidateFile(strings.NewReader(tc.data))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("validated, want error (report %+v)", rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if rep.TornTail != tc.wantTorn {
				t.Fatalf("TornTail = %v, want %v", rep.TornTail, tc.wantTorn)
			}
			if rep.Lines != tc.wantN {
				t.Fatalf("Lines = %d, want %d", rep.Lines, tc.wantN)
			}
		})
	}
}

// TestValidateTraceFileDamage: the trace validator names empty and
// truncated files instead of reporting a generic JSON error.
func TestValidateTraceFileDamage(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewCommandTrace(16)
	tr.Record(100, 10, telemetry.KindACT, telemetry.CauseDemand, 0, 7)
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if err := telemetry.ValidateTraceFile(whole); err != nil {
		t.Fatalf("intact trace rejected: %v", err)
	}
	if err := telemetry.ValidateTraceFile(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty file error = %v, want named empty-file error", err)
	}
	cut := whole[:len(whole)/2]
	err := telemetry.ValidateTraceFile(cut)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated file error = %v, want named truncation error", err)
	}
	// Interior damage is not truncation: don't mislabel it.
	bad := bytes.Replace(whole, []byte(`"ph"`), []byte(`"p h`), 1)
	err = telemetry.ValidateTraceFile(bad)
	if err == nil {
		t.Fatal("damaged trace validated")
	}
}

// FuzzValidateLine feeds arbitrary bytes to the metrics line validator
// and to the JSON-lines file validator. Any input may be rejected; none
// may panic. Seeds are the fixture above, the golden metrics log, and the
// damage shapes of TestValidateMetricsFileDamage.
func FuzzValidateLine(f *testing.F) {
	f.Add([]byte(validEpochLine))
	data, err := os.ReadFile(filepath.Join("testdata", "golden_metrics.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f.Add(append([]byte(nil), sc.Bytes()...))
	}
	torn := validEpochLine[:40]
	for _, s := range []string{
		"",
		"\n",
		torn,
		validEpochLine + "\n" + torn,
		validEpochLine + "\n" + torn + "\n" + validEpochLine + "\n",
		`{"schema":"other/v2","kind":"epoch"}`,
		`{"schema":"autorfm-metrics/v1","kind":"bogus"}`,
		`{"schema":"autorfm-metrics/v1","kind":"epoch","epoch":-1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		_ = telemetry.ValidateMetricsLine(line)
		_, _ = telemetry.ValidateFile(bytes.NewReader(line))
	})
}
