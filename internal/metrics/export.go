package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// promName mangles a dotted metric name into the Prometheus identifier
// charset: dots and dashes become underscores. Names are lint-enforced
// dotted lowercase, so this is total.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel renders a {key="value"} label clause, escaping the value
// per the exposition format; empty key renders nothing.
func promLabel(key, value string) string {
	if key == "" {
		return ""
	}
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	return `{` + promName(key) + `="` + esc + `"}`
}

// promFloat renders a sample value; Prometheus text wants decimal or
// +Inf/-Inf/NaN spellings.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// bucketUpper returns the inclusive upper bound of magnitude bucket i
// as a float: bucket 0 holds v < 1 (le="1" exclusive-as-inclusive is
// fine for integer-valued observations; documented in DESIGN.md §13),
// bucket i holds v < 2^i.
func bucketUpper(i int) float64 {
	return math.Ldexp(1, i) // 2^i
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per family, counters and
// gauges as single samples, histograms as cumulative _bucket{le=...}
// series plus _sum and _count.
func WritePrometheus(w io.Writer, s Snapshot) error {
	lastFamily := ""
	for _, p := range s.Points {
		fam := promName(p.Name)
		if fam != lastFamily {
			typ := "gauge"
			switch p.Kind {
			case KindCounter:
				typ = "counter"
			case KindHistogram:
				typ = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, typ); err != nil {
				return err
			}
			lastFamily = fam
		}
		if p.Hist == nil {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fam, promLabel(p.LabelKey, p.Label), promFloat(p.Value)); err != nil {
				return err
			}
			continue
		}
		cum := int64(0)
		for i, n := range p.Hist.Buckets {
			cum += n
			if n == 0 && i > 0 && i < NumBuckets-1 {
				continue // elide empty interior buckets; cumulative values stay exact
			}
			le := promFloat(bucketUpper(i))
			if i == NumBuckets-1 {
				le = "+Inf"
			}
			lbl := `{le="` + le + `"}`
			if p.LabelKey != "" {
				lbl = `{` + promName(p.LabelKey) + `="` + p.Label + `",le="` + le + `"}`
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam, lbl, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			fam, promLabel(p.LabelKey, p.Label), promFloat(p.Hist.Sum),
			fam, promLabel(p.LabelKey, p.Label), p.Hist.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonPoint is the self-describing JSONL record for one point.
type jsonPoint struct {
	Name     string        `json:"name"`
	Kind     Kind          `json:"kind"`
	LabelKey string        `json:"label_key,omitempty"`
	Label    string        `json:"label,omitempty"`
	Value    *float64      `json:"value,omitempty"`
	Count    *int64        `json:"count,omitempty"`
	Sum      *float64      `json:"sum,omitempty"`
	Min      *float64      `json:"min,omitempty"`
	Max      *float64      `json:"max,omitempty"`
	Buckets  map[int]int64 `json:"buckets,omitempty"`
}

// WriteJSONL writes the snapshot as one self-describing JSON object per
// line: counters/gauges carry {"value":...}, histograms carry
// count/sum/min/max and a sparse {"bucket_index": n} map where index i
// covers 2^(i-1) <= v < 2^i (index 0: v < 1).
func WriteJSONL(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	for _, p := range s.Points {
		jp := jsonPoint{Name: p.Name, Kind: p.Kind, LabelKey: p.LabelKey, Label: p.Label}
		if p.Hist != nil {
			h := *p.Hist
			jp.Count, jp.Sum, jp.Min, jp.Max = &h.Count, &h.Sum, &h.Min, &h.Max
			jp.Buckets = make(map[int]int64)
			for i, n := range h.Buckets {
				if n != 0 {
					jp.Buckets[i] = n
				}
			}
		} else {
			v := p.Value
			jp.Value = &v
		}
		if err := enc.Encode(&jp); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders the counters and histograms of a snapshot (or a
// Sub delta) for a reader at a terminal — the counts that follow the span
// tree of sjoin -stats. Series that did not move are left out, and so are
// gauges: an instantaneous reading says nothing once the join is over.
func WriteSummary(w io.Writer, s Snapshot) error {
	var counters, hists strings.Builder
	for _, p := range s.Points {
		name := p.Name + promLabel(p.LabelKey, p.Label)
		switch {
		case p.Kind == KindCounter && p.Value != 0:
			fmt.Fprintf(&counters, "  %-32s %.0f\n", name, p.Value)
		case p.Hist != nil && p.Hist.Count != 0:
			fmt.Fprintf(&hists, "  %-32s n=%d min=%s mean=%s max=%s\n", name, p.Hist.Count,
				promFloat(p.Hist.Min), promFloat(p.Hist.Mean()), promFloat(p.Hist.Max))
		}
	}
	out := ""
	if counters.Len() > 0 {
		out += "counters:\n" + counters.String()
	}
	if hists.Len() > 0 {
		out += "histograms:\n" + hists.String()
	}
	_, err := io.WriteString(w, out)
	return err
}

// Handler serves the registry over HTTP: GET /metrics returns the
// Prometheus text exposition, GET /metricsz the JSONL form. sjoin
// -metrics-addr serves it.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteJSONL(w, r.Snapshot())
	})
	return mux
}
