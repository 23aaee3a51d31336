// End-to-end smoke of the exposition layer: a real PBSM join, slowed to
// scrapeable speed by realized disk latency, is watched through the same
// HTTP handler sjoin -metrics-addr serves. Every mid-flight /metrics
// response must be well-formed Prometheus text, the progress fraction
// must be monotone nondecreasing across scrapes, and after the join
// returns it must read exactly 1. /metricsz must yield one valid JSON
// object per line.
package spatialjoin_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/metrics"
)

// scrape fetches url and fails the test on transport or status errors.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return string(body)
}

// parseExposition validates the Prometheus text format line by line and
// returns the value of the named sample, or (0, false) when absent.
// Format per line: blank, "# ..." comment, or "name[{labels}] value".
func parseExposition(t *testing.T, body, want string) (float64, bool) {
	t.Helper()
	val, found := 0.0, false
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("exposition line %q: bad value: %v", line, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("exposition line %q: unterminated label clause", line)
			}
		}
		for j := 0; j < len(name); j++ {
			c := name[j]
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(j > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("exposition line %q: invalid metric name %q", line, name)
			}
		}
		if name == want {
			val, found = v, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return val, found
}

func TestMetricsEndpointSmoke(t *testing.T) {
	reg := metrics.New()
	srv := httptest.NewServer(metrics.Handler(reg))
	defer srv.Close()

	// Realized latency stretches the join into scrapeable territory
	// without inflating its accounting.
	d := diskio.NewDisk(4096, 20, time.Microsecond)
	d.SetLatency(2 * time.Microsecond)
	R := datagen.Uniform(41, 3000, 0.004)
	S := datagen.Uniform(42, 3000, 0.004)
	cfg := core.Config{
		Method: core.PBSM, Memory: 32 << 10, Parallel: 4,
		Disk: d, Metrics: reg,
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := core.Collect(R, S, cfg)
		done <- err
	}()

	// Scrape until the join finishes; the fraction series must never
	// move backwards no matter when the samples land.
	var fractions []float64
	running := true
	for running {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			running = false
		case <-time.After(2 * time.Millisecond):
			body := scrape(t, srv.URL+"/metrics")
			if f, ok := parseExposition(t, body, "join_progress_fraction"); ok {
				fractions = append(fractions, f)
			}
		}
	}

	final, ok := parseExposition(t, scrape(t, srv.URL+"/metrics"), "join_progress_fraction")
	if !ok {
		t.Fatal("join_progress_fraction missing from exposition after the join")
	}
	fractions = append(fractions, final)
	for i := 1; i < len(fractions); i++ {
		if fractions[i] < fractions[i-1] {
			t.Fatalf("progress fraction moved backwards: sample %d is %v after %v", i, fractions[i], fractions[i-1])
		}
	}
	if final != 1 {
		t.Fatalf("final progress fraction %v, want exactly 1", final)
	}
	t.Logf("collected %d fraction samples, final %v", len(fractions), final)

	// JSONL view: one well-formed object per line, progress present.
	sawFraction := false
	sc := bufio.NewScanner(strings.NewReader(scrape(t, srv.URL+"/metricsz")))
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("metricsz line %q: %v", sc.Text(), err)
		}
		if obj["name"] == metrics.JoinProgressFraction {
			sawFraction = true
			if v, _ := obj["value"].(float64); v != 1 {
				t.Fatalf("metricsz progress fraction %v, want 1", obj["value"])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawFraction {
		t.Fatal("join.progress.fraction missing from JSONL exposition")
	}
}
