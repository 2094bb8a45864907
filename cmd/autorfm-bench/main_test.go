package main

import (
	"bufio"
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

// serveSweep runs a -serve coordinator with args on an ephemeral port plus
// one -worker pointed at it, and returns the coordinator's combined output
// and exit code.
func serveSweep(t *testing.T, args ...string) (string, int) {
	t.Helper()
	coord := bench(append(args, "-serve", "127.0.0.1:0", "-quiet")...)
	var stdout, out bytes.Buffer // stdout is filled by exec's copier goroutine
	coord.Stdout = &stdout
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// The listener is bound before the coordinator names its address.
	lines := bufio.NewScanner(stderr)
	var url string
	for url == "" && lines.Scan() {
		out.WriteString(lines.Text() + "\n")
		if _, rest, ok := strings.Cut(lines.Text(), "workers connect to "); ok {
			url, _, _ = strings.Cut(rest, " ")
		}
	}
	if url == "" {
		t.Fatalf("coordinator never named its address:\n%s", out.String())
	}
	if wout, code := runBench(t, "-worker", url, "-j", "1", "-quiet"); code != 0 {
		t.Fatalf("worker exited %d:\n%s", code, wout)
	}
	for lines.Scan() {
		out.WriteString(lines.Text() + "\n")
	}
	code := exitCode(t, coord.Wait())
	return stdout.String() + out.String(), code
}

var tab5 = []string{"-exp", "tab5", "-workloads", "lbm,bfs", "-instr", "40000"}

// TestServeReportMatchesSerial: a sweep run by a -serve coordinator and a
// -worker writes the same -report bytes as the same sweep run locally.
func TestServeReportMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	serial, dist := filepath.Join(dir, "serial.txt"), filepath.Join(dir, "dist.txt")
	if out, code := runBench(t, append(tab5, "-j", "1", "-quiet", "-report", serial)...); code != 0 {
		t.Fatalf("serial sweep exited %d:\n%s", code, out)
	}
	if out, code := serveSweep(t, append(tab5, "-report", dist)...); code != 0 {
		t.Fatalf("-serve sweep exited %d:\n%s", code, out)
	}
	want, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("-serve report differs from serial report\nserial:\n%s\nserve:\n%s", want, got)
	}
}

// TestServeRejectsLocalFlags: flags that only configure the local pool or
// a worker are a usage error under -serve, not silently ignored.
func TestServeRejectsLocalFlags(t *testing.T) {
	out, code := runBench(t, "-serve", "127.0.0.1:0", "-worker", "http://127.0.0.1:1")
	if code != 2 || !strings.Contains(out, "-serve cannot be combined") {
		t.Fatalf("-serve -worker: exit %d, want 2 with a usage error:\n%s", code, out)
	}
}

// TestServeChaosFails: a chaos fault set up with -faults reaches the
// workers through the job configs, so the doomed job fails the -serve
// sweep with its cause footnoted.
func TestServeChaosFails(t *testing.T) {
	out, code := serveSweep(t, append(tab5, "-seed", "1", "-faults", "chaos(p=0.5)")...)
	if code != 1 || !strings.Contains(out, "injected chaos panic") {
		t.Fatalf("chaos sweep: exit %d, want 1 with the chaos footnote:\n%s", code, out)
	}
}
