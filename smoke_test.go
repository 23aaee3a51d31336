package spatialjoin_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// These smoke tests execute every example and command end to end at a
// small scale, so `go test ./...` proves the whole repository — not just
// the libraries — actually runs. Skipped under -short.

func runBinary(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	cases := []struct {
		args     []string
		expected string // a fragment the output must contain
	}{
		{[]string{"./examples/quickstart"}, "matches"},
		{[]string{"./examples/gisoverlay", "-n", "3000"}, "identical, duplicate-free result set"},
		{[]string{"./examples/pipeline", "-n", "3000", "-k", "10"}, "first result after"},
		{[]string{"./examples/memtuning", "-n", "4000"}, "PBSM(trie)"},
		{[]string{"./examples/indexed", "-n", "3000"}, "index on both"},
		{[]string{"./examples/refinement", "-n", "3000"}, "false-positive rate"},
		{[]string{"./examples/nearby", "-n", "3000"}, "within-eps"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.args[0], func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, c.args...)
			if !strings.Contains(out, c.expected) {
				t.Fatalf("output of %v missing %q:\n%s", c.args, c.expected, out)
			}
		})
	}
}

func TestCommandsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("commands skipped in -short mode")
	}
	// Not parallel: the coverage gate measures wall time, and the other
	// subtests would share the processors with it.
	t.Run("sjoin-trace", func(t *testing.T) {
		// One PBSM join of 8 000 x 8 000 uniform rectangles with memory at
		// about a quarter of the input (0.076 paper-MB = 4 000 KPEs). Not
		// fewer records: the one join of a fresh process pays some 80 us
		// of cold-start set-up before its first phase span opens, a share
		// that grows as the join gets faster.
		path := filepath.Join(t.TempDir(), "trace.json")
		out := runBinary(t, "./cmd/sjoin", "-r", "uniform", "-s", "uniform", "-n", "8000",
			"-method", "pbsm", "-mem", "0.076", "-trace", path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(raw, &events); err != nil {
			t.Fatalf("%s does not parse as a Chrome trace_event array: %v", path, err)
		}
		spans := 0
		for _, e := range events {
			if e["ph"] == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Fatalf("%s holds %d events and no complete (\"ph\":\"X\") span", path, len(events))
		}
		m := regexp.MustCompile(`coverage ([0-9.]+)%`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("sjoin -trace printed no coverage:\n%s", out)
		}
		cov, _ := strconv.ParseFloat(m[1], 64)
		if cov < 95 {
			t.Fatalf("the span tree covers %.1f%% of the join's wall time, want at least 95%%", cov)
		}
		t.Logf("%d spans, coverage %.1f%%", spans, cov)
	})
	t.Run("sjoin", func(t *testing.T) {
		t.Parallel()
		out := runBinary(t, "./cmd/sjoin", "-n", "2000", "-method", "s3j")
		if !strings.Contains(out, "results") || !strings.Contains(out, "s3j") {
			t.Fatalf("unexpected sjoin output:\n%s", out)
		}
	})
	t.Run("sjoin-timeout", func(t *testing.T) {
		// A deadline that has passed before the first checkpoint: the join
		// must fail with status 1 and a structured error naming its phase,
		// and print no result.
		t.Parallel()
		bin := filepath.Join(t.TempDir(), "sjoin")
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sjoin").CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, out)
		}
		var stdout, stderr strings.Builder
		cmd := exec.Command(bin, "-n", "20000", "-timeout", "1ns")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var ee *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("sjoin -timeout 1ns: %v, want exit status 1\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
		}
		if msg := stderr.String(); !strings.Contains(msg, "phase:") || !strings.Contains(msg, "deadline exceeded") {
			t.Fatalf("stderr names no phase or no deadline:\n%s", msg)
		}
		if regexp.MustCompile(`(?m)^results`).MatchString(stdout.String()) {
			t.Fatalf("a timed-out join printed its results:\n%s", &stdout)
		}
	})
	t.Run("sjdatagen", func(t *testing.T) {
		t.Parallel()
		out := runBinary(t, "./cmd/sjdatagen", "-d", "la_rr", "-n", "3000")
		if !strings.Contains(out, "coverage") {
			t.Fatalf("unexpected sjdatagen output:\n%s", out)
		}
	})
	t.Run("sjbench", func(t *testing.T) {
		t.Parallel()
		out := runBinary(t, "./cmd/sjbench", "-la-scale", "0.02", "-cal-scale", "0.005",
			"-exp", "table1,table2")
		if !strings.Contains(out, "Table 1") || !strings.Contains(out, "J5") {
			t.Fatalf("unexpected sjbench output:\n%s", out)
		}
	})
	t.Run("sjbench-csv", func(t *testing.T) {
		t.Parallel()
		out := runBinary(t, "./cmd/sjbench", "-la-scale", "0.02",
			"-exp", "table1", "-format", "csv")
		if !strings.Contains(out, "dataset,MBRs,coverage") {
			t.Fatalf("unexpected csv output:\n%s", out)
		}
	})
}
