package spatialjoin_test

import (
	"os/exec"
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
	t.Run("sjoin", func(t *testing.T) {
		t.Parallel()
		out := runBinary(t, "./cmd/sjoin", "-n", "2000", "-method", "s3j")
		if !strings.Contains(out, "results") || !strings.Contains(out, "s3j") {
			t.Fatalf("unexpected sjoin output:\n%s", out)
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
