package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: run with
// "autorfm-sim" as its first argument, it executes main with the rest.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "autorfm-sim" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs the command in a child process and returns its combined
// output and exit code.
func runSim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"autorfm-sim"}, args...)...).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("running autorfm-sim %v: %v", args, err)
	return "", 0
}

// TestReplayTruncatedTraceFails: a trace whose last record is torn must
// fail the command with the reader's error, not print the cut-short run's
// results and exit 0. The intact trace replays cleanly.
func TestReplayTruncatedTraceFails(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.arfm")
	if out, code := runSim(t, "-workload", "lbm", "-record", full, "-record-n", "1000"); code != 0 {
		t.Fatalf("-record exited %d:\n%s", code, out)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.arfm")
	if err := os.WriteFile(torn, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	replay := func(path string) (string, int) {
		return runSim(t, "-workload", "lbm", "-replay", path, "-instr", "100000", "-j", "1")
	}
	out, code := replay(torn)
	if code != 1 || !strings.Contains(out, "trace record 999: truncated") {
		t.Fatalf("torn trace: exit %d, want 1 with the reader's error:\n%s", code, out)
	}
	if out, code := replay(full); code != 0 {
		t.Fatalf("intact trace: exit %d:\n%s", code, out)
	}
}

// TestRejectsOutOfRangeCounts: a count flag below its range exits 1 with a
// message naming the flag before any work, instead of writing a trace
// whose header line claims a negative count or silently taking a default.
func TestRejectsOutOfRangeCounts(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-record", filepath.Join(dir, "neg.arfm"), "-record-n", "-5"}, "-record-n -5: must be at least 0"},
		{[]string{"-seeds", "-3"}, "-seeds -3: must be at least 1"},
		{[]string{"-seeds", "0"}, "-seeds 0: must be at least 1"},
		{[]string{"-trace", filepath.Join(dir, "t.json"), "-trace-cap", "-1"}, "-trace-cap -1: must be at least 0"},
	} {
		out, code := runSim(t, append([]string{"-workload", "lbm", "-instr", "2000", "-j", "1"}, tc.args...)...)
		if code != 1 || !strings.Contains(out, tc.want) {
			t.Errorf("%v: exit %d, want 1 with %q:\n%s", tc.args, code, tc.want, out)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("rejected runs left files %v (%v)", entries, err)
	}
}
