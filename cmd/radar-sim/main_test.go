package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain runs the command itself when the test binary is started with
// arguments after "--": those are radar-sim's arguments, and the exit
// status is the command's.
func TestMain(m *testing.M) {
	if i := slices.Index(os.Args, "--"); i >= 0 {
		os.Args = append(os.Args[:1], os.Args[i+1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// radarSim runs the command with args and returns its combined output and
// exit error.
func radarSim(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	return cmd.CombinedOutput()
}

// TestRunsRefusesSharedOutputs: -runs N with -trace or -csv is refused
// before anything is written, so an existing trace file keeps its bytes.
func TestRunsRefusesSharedOutputs(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	old := []byte("keep\n")
	if err := os.WriteFile(trace, old, 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-workload", "zipf", "-objects", "200", "-duration", "1m", "-runs", "2"}
	for _, extra := range [][]string{{"-trace", trace}, {"-csv", filepath.Join(dir, "csv")}} {
		out, err := radarSim(t, append(base, extra...)...)
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%v: exit error %v, want a non-zero exit; output:\n%s", extra, err, out)
		}
		if !bytes.Contains(out, []byte(extra[0])) {
			t.Errorf("%v: output does not name %s:\n%s", extra, extra[0], out)
		}
	}
	if got, err := os.ReadFile(trace); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("trace file holds %q (%v) after the refused run, want %q", got, err, old)
	}
	if _, err := os.Stat(filepath.Join(dir, "csv")); !os.IsNotExist(err) {
		t.Errorf("refused -csv run created its directory (stat: %v)", err)
	}
}
