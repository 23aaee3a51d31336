// End-to-end smoke of the exposition layer: a real PBSM join is watched
// through the same HTTP handler sjoin -metrics-addr serves, scraped from
// inside its result stream. Every mid-flight /metrics response must be
// well-formed Prometheus text, the progress fraction must be monotone
// nondecreasing across scrapes and take at least two distinct values
// strictly between 0 and 1, and after the join returns it must read
// exactly 1. /metricsz must yield one valid JSON object per line.
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

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
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

	R := datagen.Uniform(41, 3000, 0.01)
	S := datagen.Uniform(42, 3000, 0.01)
	cfg := core.Config{Method: core.PBSM, Memory: 32 << 10, Parallel: 1, Metrics: reg}

	// Scrape from inside the result stream, every scrapeEvery-th pair: the
	// join is mid-flight by construction, however fast it runs, and the
	// fraction series must never move backwards. A serial join completes
	// its pairs in emission order, so the samples are the same on every
	// run, and it calls emit on this goroutine, where scrape may fail the
	// test.
	const scrapeEvery = 25
	var fractions []float64
	pairs := 0
	_, err := core.Join(R, S, cfg, func(geom.Pair) {
		if pairs++; pairs%scrapeEvery != 0 {
			return
		}
		if f, ok := parseExposition(t, scrape(t, srv.URL+"/metrics"), "join_progress_fraction"); ok {
			fractions = append(fractions, f)
		}
	})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	midFlight := map[float64]bool{}
	for _, f := range fractions {
		if f > 0 && f < 1 {
			midFlight[f] = true
		}
	}
	if len(midFlight) < 2 {
		t.Fatalf("%d scrapes over %d pairs saw %d distinct fractions strictly between 0 and 1, want at least 2: %v",
			len(fractions), pairs, len(midFlight), fractions)
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
	t.Logf("collected %d fraction samples, %d distinct mid-flight, final %v", len(fractions), len(midFlight), final)

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
