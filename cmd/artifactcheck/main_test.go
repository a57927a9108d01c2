package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"logpopt/internal/logp"
	"logpopt/internal/obs"
	"logpopt/internal/obs/report"
)

// TestArtifactcheck runs the check over one file per case: written traces
// and reports pass with their kind's summary; an empty, malformed,
// event-less or unknown-field file fails, which main turns into exit 1.
func TestArtifactcheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	tr := obs.NewTracer()
	tr.NameProcess(1, "engine")
	tr.Span(1, 0, "send", 0, 2)
	tracePath := filepath.Join(dir, "trace.json")
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	rep := report.New("logpsched", logp.MustNew(8, 6, 2, 4))
	rep.Op = "broadcast"
	rep.SetOutcome(24, 24)
	reportPath := filepath.Join(dir, "report.json")
	if err := rep.WriteFile(reportPath); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		path string
		ok   bool
		want string // substring of the summary, or of the error
	}{
		{"trace", tracePath, true, "2 trace events"},
		{"bare-array trace", write("arr.json", `[{"name":"x","ph":"i","ts":0}]`), true, "1 trace events"},
		{"report", reportPath, true, "logpsched broadcast P=8 finish 24, bound 24 (gap 0)"},
		{"empty", write("empty.json", " \n"), false, "empty file"},
		{"malformed", write("bad.json", `{"traceEvents":[{"ph":"X"}`), false, "not valid JSON"},
		{"malformed array", write("badarr.json", `[{"ph":"X"},`), false, "not valid JSON"},
		{"no events", write("none.json", `{"traceEvents":[]}`), false, "no trace events"},
		{"no phase", write("noph.json", `[{"name":"x"}]`), false, "no phase"},
		{"event not an object", write("num.json", `{"traceEvents":[{"ph":"X"},7]}`), false, "not valid JSON"},
		{"not an object", write("str.json", `"trace"`), false, "not valid JSON"},
		{"unknown field", write("unk.json", strings.Replace(read(t, reportPath), `"tool"`, `"color":1,"tool"`, 1)), false, "unknown field"},
		{"missing", filepath.Join(dir, "absent.json"), false, "absent.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			summary, err := check(tc.path)
			got := summary
			if err != nil {
				got = err.Error()
			}
			if (err == nil) != tc.ok || !strings.Contains(got, tc.want) {
				t.Fatalf("check = %q, %v; want ok=%v mentioning %q", summary, err, tc.ok, tc.want)
			}
			if tc.ok {
				return
			}
			// The command itself exits 1, even after a file that passes.
			if code := runMain(t, tracePath, tc.path); code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
		})
	}
	if code := runMain(t, tracePath, reportPath); code != 0 {
		t.Fatalf("trace and report: exit %d, want 0", code)
	}
	if code := runMain(t); code != 2 {
		t.Fatalf("no arguments: exit %d, want 2", code)
	}
}

// runMain runs main in a child copy of the test binary with args and
// returns its exit code.
func runMain(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainProcess$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "ARTIFACTCHECK_MAIN=1")
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}

// TestMainProcess is the child side of runMain; it does nothing in a normal
// test run.
func TestMainProcess(t *testing.T) {
	if os.Getenv("ARTIFACTCHECK_MAIN") != "1" {
		return
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"artifactcheck"}, os.Args[i+1:]...)
			break
		}
	}
	main()
	os.Exit(0)
}

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
