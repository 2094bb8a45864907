package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: run with
// "autorfm-bench" as its first argument, it executes main with the rest.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "autorfm-bench" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func bench(args ...string) *exec.Cmd {
	return exec.Command(os.Args[0], append([]string{"autorfm-bench"}, args...)...)
}

// exitCode maps a finished command's error to its exit code.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		return exit.ExitCode()
	}
	t.Fatal(err)
	return 0
}

// runBench runs the command in a child process and returns its combined
// output and exit code.
func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := bench(args...).CombinedOutput()
	return string(out), exitCode(t, err)
}

var tab5 = []string{"-exp", "tab5", "-workloads", "lbm,bfs", "-instr", "40000"}

// TestReportMatchesAcrossJobs: -report holds only the deterministic table
// bytes, so a serial and a parallel run of one sweep write the same file.
func TestReportMatchesAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	serial, parallel := filepath.Join(dir, "serial.txt"), filepath.Join(dir, "parallel.txt")
	if out, code := runBench(t, append(tab5, "-j", "1", "-quiet", "-report", serial)...); code != 0 {
		t.Fatalf("-j 1 sweep exited %d:\n%s", code, out)
	}
	if out, code := runBench(t, append(tab5, "-j", "2", "-quiet", "-report", parallel)...); code != 0 {
		t.Fatalf("-j 2 sweep exited %d:\n%s", code, out)
	}
	want, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("-j 2 report differs from -j 1 report\n-j 1:\n%s\n-j 2:\n%s", want, got)
	}
}

// TestChaosFails: a chaos fault set up with -faults panics a job inside
// the pool; the sweep still renders, footnotes the cause and exits 1.
func TestChaosFails(t *testing.T) {
	out, code := runBench(t, append(tab5, "-seed", "1", "-quiet", "-faults", "chaos(p=0.5)")...)
	if code != 1 || !strings.Contains(out, "injected chaos panic") {
		t.Fatalf("chaos sweep: exit %d, want 1 with the chaos footnote:\n%s", code, out)
	}
}
