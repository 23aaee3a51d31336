package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// sorted returns the spans sorted for tree traversal: by start, ties by
// ID, so parents precede children.
func (r *Recorder) sorted() []SpanData {
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	return spans
}

// WriteTree renders the human-readable phase-tree summary: every span
// with wall time, I/O delta (requests, pages, cost units) and record
// count, nested under its parent, followed by a tally of the instant
// events (I/O retries and faults, cancellation, shard supervision).
func (r *Recorder) WriteTree(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "(no trace recorded)")
		return err
	}
	spans := r.sorted()
	children := make(map[int64][]int)
	events := make(map[string]int64)
	var roots []int
	for i, s := range spans {
		if s.Instant {
			events[s.Name]++
			continue
		}
		if s.Parent == 0 {
			roots = append(roots, i)
		} else {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\twall\tio req r/w\tpages r/w\tcost\trecs\t")
	var walk func(i int, linePrefix, childPrefix string)
	walk = func(i int, linePrefix, childPrefix string) {
		s := spans[i]
		attrs := ""
		for _, a := range s.Attrs {
			if a.Str != "" {
				attrs += fmt.Sprintf(" %s=%s", a.Key, a.Str)
			} else {
				attrs += fmt.Sprintf(" %s=%d", a.Key, a.Val)
			}
		}
		fmt.Fprintf(tw, "%s%s%s\t%v\t%d/%d\t%d/%d\t%.1f\t%d\t\n",
			linePrefix, s.Name, attrs,
			s.Dur.Round(10*time.Microsecond),
			s.IO.ReadRequests, s.IO.WriteRequests,
			s.IO.PagesRead, s.IO.PagesWritten,
			s.IO.CostUnits, s.Records)
		kids := children[s.ID]
		for k, c := range kids {
			if k == len(kids)-1 {
				walk(c, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(c, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	for _, rt := range roots {
		walk(rt, "", "")
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(events) > 0 {
		names := make([]string, 0, len(events))
		for n := range events {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "events:")
		for _, n := range names {
			fmt.Fprintf(w, " %s×%d", n, events[n])
		}
		fmt.Fprintln(w)
	}
	return nil
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.Str != "" {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Val
		}
	}
	return m
}

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the subset chrome://tracing and Perfetto load: "X" complete events,
// "i" instant events, "M" metadata). Timestamps and durations are in
// microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the trace as a Chrome trace_event array.
// Spans may overlap in time (parallel PBSM workers), and the format
// requires events on one tid to nest strictly, so spans are assigned to
// lanes ("threads"): a span lands on its parent's lane when the parent
// is the innermost open span there, otherwise on a fresh lane.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.sorted()

	type openEntry struct {
		id  int64
		end time.Duration
	}
	var lanes [][]openEntry
	laneOf := make(map[int64]int, len(spans))
	assign := func(s SpanData) int {
		for li := range lanes {
			st := lanes[li]
			for len(st) > 0 && st[len(st)-1].end <= s.Start {
				st = st[:len(st)-1]
			}
			lanes[li] = st
		}
		if s.Parent != 0 {
			if li, ok := laneOf[s.Parent]; ok {
				st := lanes[li]
				if len(st) > 0 && st[len(st)-1].id == s.Parent && st[len(st)-1].end >= s.End() {
					lanes[li] = append(st, openEntry{s.ID, s.End()})
					return li
				}
			}
		}
		for li := range lanes {
			if len(lanes[li]) == 0 {
				lanes[li] = append(lanes[li], openEntry{s.ID, s.End()})
				return li
			}
		}
		lanes = append(lanes, []openEntry{{s.ID, s.End()}})
		return len(lanes) - 1
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []chromeEvent{{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]any{"name": "spatialjoin"},
	}}
	for _, s := range spans {
		if s.Instant {
			events = append(events, chromeEvent{
				Name: s.Name, Phase: "i", TS: us(s.Start), PID: 1, TID: 0,
				Scope: "p", Args: attrMap(s.Attrs),
			})
			continue
		}
		li := assign(s)
		laneOf[s.ID] = li
		args := attrMap(s.Attrs)
		if args == nil {
			args = map[string]any{}
		}
		args["records"] = s.Records
		args["readReqs"] = s.IO.ReadRequests
		args["writeReqs"] = s.IO.WriteRequests
		args["pagesRead"] = s.IO.PagesRead
		args["pagesWritten"] = s.IO.PagesWritten
		args["retries"] = s.IO.Retries
		args["costUnits"] = s.IO.CostUnits
		events = append(events, chromeEvent{
			Name: s.Name, Phase: "X", TS: us(s.Start), Dur: us(s.Dur),
			PID: 1, TID: li + 1, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Coverage reports how much of the root spans' wall time is covered by
// their direct children: the duration-weighted fraction of each root
// interval lying inside the union of its children's intervals. A
// well-instrumented join keeps this ≥0.95 — gaps mean unattributed
// work. Returns 1 when there are no root spans with children.
func (r *Recorder) Coverage() float64 {
	spans := r.Spans()
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Instant || s.Parent == 0 {
			continue
		}
		children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End()})
	}
	var total, covered time.Duration
	for _, s := range spans {
		if s.Instant || s.Parent != 0 || s.Dur <= 0 {
			continue
		}
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		var cov time.Duration
		cursor := s.Start
		for _, iv := range kids {
			lo, hi := iv[0], iv[1]
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End() {
				hi = s.End()
			}
			if hi > lo {
				cov += hi - lo
				cursor = hi
			}
		}
		total += s.Dur
		covered += cov
	}
	if total == 0 {
		return 1
	}
	return float64(covered) / float64(total)
}
