package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/trace"
)

const (
	// tracedJoins is the number of joins on each side of the overhead
	// comparison: that many untraced, then that many traced.
	tracedJoins = 3
	// cellReps is the number of repetitions of a kernel cell; the cell's
	// time is their median.
	cellReps = 5
	// maxUnattributed is the share of a traced in-process join that may
	// lie outside every top-level phase span before the traced pass
	// fails: phase cells must sum to the end-to-end cell within a tenth.
	maxUnattributed = 0.10
)

// span is one benchmark-owned span: a call from the benchmark into a
// layer of the program. Spans are kept in memory and written out, if
// asked for, when the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a span nothing caused
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(l.epoch)})
	return id
}

func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = time.Since(l.epoch)
	return s.End - s.Start
}

// tracedRun is the state of one traced pass over one workload.
type tracedRun struct {
	p   *prepared
	log spanLog
	m   values
	tally
	// rec is the program's own span list of the last traced join.
	rec *trace.Recorder
}

// fail counts a failed layer call or a failed gate of the traced pass.
func (t *tracedRun) fail(format string, args ...any) {
	t.note(fmt.Sprintf(format, args...))
}

// cell measures one kernel: work runs cellReps times, each repetition in
// a span of its own under one span named after the cell, after prep
// (untimed, may be nil) has readied its inputs. It returns the median
// repetition in seconds.
func (t *tracedRun) cell(name string, prep func(), work func() error) float64 {
	parent := t.log.begin(name, 0)
	secs := make([]float64, cellReps)
	for i := range secs {
		if prep != nil {
			prep()
		}
		id := t.log.begin(name+"/rep", parent)
		err := work()
		secs[i] = t.log.end(id).Seconds()
		if err != nil {
			t.fail("%s: %v", name, err)
		}
	}
	t.log.end(parent)
	return median(secs)
}

// timedJoin runs one checked core.Join inside a benchmark span.
func (t *tracedRun) timedJoin(name string, rec *trace.Recorder) joinSample {
	id := t.log.begin(name, 0)
	s := t.p.join(rec)
	t.log.end(id)
	t.note(s.failure)
	return s
}

// runTraced is the per-layer pass over one workload: untraced joins for
// the baseline, traced joins for the stage cells and the tracing
// overhead, then the workload's kernel cells.
func runTraced(w workload, opt options) (*tracedRun, error) {
	t := &tracedRun{log: spanLog{epoch: time.Now()}, m: values{}}
	for _, m := range perLayer {
		t.m[m.name] = 0
	}
	var err error
	if t.p, err = setUp(w, opt, &t.tally); err != nil {
		return nil, err
	}

	var plain, traced []float64
	for i := 0; i < tracedJoins; i++ {
		plain = append(plain, t.timedJoin("core.Join", nil).wall.Seconds())
	}
	// A stage cell is the median over the traced joins, so that one
	// stalled join does not decide a phase wall or a gate.
	stages := map[string][]float64{}
	for i := 0; i < tracedJoins; i++ {
		t.rec = trace.New()
		s := t.timedJoin("core.Join traced", t.rec)
		traced = append(traced, s.wall.Seconds())
		for name, v := range t.stageCells(s) {
			stages[name] = append(stages[name], v)
		}
	}
	for name, vs := range stages {
		t.m[name] = median(vs)
	}
	t.m["trace.overhead_share"] = (median(traced) - median(plain)) / median(plain)
	if r := t.m["diskio.retries"]; r != 0 {
		t.fail("diskio.retries = %g on a fault-free disk", r)
	}
	if u := t.m["core.unattributed_share"]; t.p.cfg.Shards <= 1 && u > maxUnattributed {
		// Not gated on a sharded join: the workers' spans do not reach
		// the coordinator's recorder.
		t.fail("core.unattributed_share = %.3f exceeds %.2f", u, maxUnattributed)
	}
	if t.p.cfg.Shards > 1 {
		t.shardStage()
	}
	w.kernels(t)
	return t, nil
}

// stageCells reads the per-phase cells off one traced join: its Result
// statistics and the program's own span list.
func (t *tracedRun) stageCells(s joinSample) values {
	res, spans := s.res, t.rec.Spans()
	n := float64(t.p.in.records())
	m := values{
		"diskio.cost_units":     res.IO.CostUnits,
		"diskio.read_requests":  float64(res.IO.ReadRequests),
		"diskio.write_requests": float64(res.IO.WriteRequests),
		"diskio.pages_read":     float64(res.IO.PagesRead),
		"diskio.pages_written":  float64(res.IO.PagesWritten),
		"diskio.retries":        float64(res.IO.Retries),
	}

	var root trace.SpanData
	for _, sp := range spans {
		if sp.Parent == 0 && !sp.Instant && sp.Dur > root.Dur {
			root = sp
		}
	}
	m["trace.spans"] = float64(len(spans))
	m["trace.coverage"] = t.rec.Coverage()
	// Whatever no top-level phase span covers: validation, admission and
	// the facade around the join method.
	m["core.unattributed_share"] = 1 - unionSeconds(spans, root.ID, "")/s.wall.Seconds()

	share := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return float64(part) / float64(whole)
	}
	if st := res.PBSMStats; st != nil {
		// Walls are unions of span intervals, not Stats.PhaseCPU, which
		// reads 0 for repartitioning when the pairs run in parallel.
		m["pbsm.partition_wall_s"] = unionSeconds(spans, root.ID, pbsm.PhasePartition.String())
		m["pbsm.repartition_wall_s"] = unionSeconds(spans, root.ID, pbsm.PhaseRepartition.String())
		m["pbsm.joinphase_wall_s"] = unionSeconds(spans, root.ID, pbsm.PhaseJoin.String())
		m["pbsm.dup_wall_s"] = unionSeconds(spans, root.ID, pbsm.PhaseDup.String())
		m["pbsm.partition_io_units"] = st.PhaseIO[pbsm.PhasePartition].CostUnits
		m["pbsm.repartition_io_units"] = st.PhaseIO[pbsm.PhaseRepartition].CostUnits
		m["pbsm.joinphase_io_units"] = st.PhaseIO[pbsm.PhaseJoin].CostUnits
		m["pbsm.dup_io_units"] = st.PhaseIO[pbsm.PhaseDup].CostUnits
		m["pbsm.partitions"] = float64(st.P)
		m["pbsm.repartitions"] = float64(st.Repartitions)
		m["pbsm.memory_overflows"] = float64(st.MemoryOverflows)
		m["pbsm.copies_per_record"] = float64(st.CopiesR+st.CopiesS) / n
		m["pbsm.sweep_tests"] = float64(st.Tests)
		m["pbsm.tests_per_result"] = share(st.Tests, st.Results)
		m["pbsm.dup_suppressed_share"] = share(st.RawResults-st.Results, st.RawResults)
		m["pbsm.first_result_io_units"] = st.FirstResultIO
	}
	if st := res.S3JStats; st != nil {
		m["s3j.partition_wall_s"] = unionSeconds(spans, root.ID, s3j.PhasePartition.String())
		m["s3j.sort_wall_s"] = unionSeconds(spans, root.ID, s3j.PhaseSort.String())
		m["s3j.scan_wall_s"] = unionSeconds(spans, root.ID, s3j.PhaseJoin.String())
		m["s3j.partition_io_units"] = st.PhaseIO[s3j.PhasePartition].CostUnits
		m["s3j.sort_io_units"] = st.PhaseIO[s3j.PhaseSort].CostUnits
		m["s3j.scan_io_units"] = st.PhaseIO[s3j.PhaseJoin].CostUnits
		m["s3j.copies_per_record"] = float64(st.CopiesR+st.CopiesS) / n
		m["s3j.dup_suppressed_share"] = share(st.RawResults-st.Results, st.RawResults)
		m["s3j.sort_runs"] = float64(st.SortRuns)
		m["s3j.merge_passes"] = float64(st.MergePasses)
		m["s3j.sweep_tests"] = float64(st.Tests)
		m["s3j.max_resident_bytes"] = float64(st.MaxResident)
	}
	return m
}

// shardStage runs one direct shard.Join, the only call that returns the
// coordinator's statistics, and checks its output like any other join.
func (t *tracedRun) shardStage() {
	cfg := t.p.cfg
	id := t.log.begin("shard.Join", 0)
	chk := t.p.o.newChecker(func() {})
	res, err := shard.Join(t.p.in.R, t.p.in.S, shard.Config{Shards: cfg.Shards, Memory: cfg.Memory}, chk.emit)
	t.log.end(id)
	if err != nil {
		t.note(err.Error())
	} else {
		t.note(chk.verdict())
	}
	st := res.Stats
	t.m["shard.spawns"] = float64(st.Spawns)
	t.m["shard.restarts"] = float64(st.Restarts)
	t.m["shard.kills"] = float64(st.Kills)
	t.m["shard.absorbed"] = float64(st.Absorbed)
	t.m["shard.degraded"] = float64(st.Degraded)
	t.m["shard.seals"] = float64(st.Seals)
	t.m["shard.worker_cpu_s"] = res.CPU.Seconds()
	t.m["shard.worker_live_files"] = float64(st.WorkerLiveFiles)
}

// unionSeconds is the length of the union of the intervals of parent's
// direct child spans called name, or of all of them when name is empty.
// Spans of parallel workers overlap, so their durations cannot be added.
func unionSeconds(spans []trace.SpanData, parent int64, name string) float64 {
	var ivs [][2]time.Duration
	for i := range spans {
		sp := &spans[i]
		if sp.Parent == parent && !sp.Instant && (name == "" || sp.Name == name) {
			ivs = append(ivs, [2]time.Duration{sp.Start, sp.End()})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cursor time.Duration
	for _, iv := range ivs {
		if iv[0] > cursor {
			cursor = iv[0]
		}
		if iv[1] > cursor {
			total += iv[1] - cursor
			cursor = iv[1]
		}
	}
	return total.Seconds()
}

// writeSpans writes the benchmark's own spans, then the program's span
// list of the last traced join, one JSON object a line.
func (t *tracedRun) writeSpans(w io.Writer) error {
	type line struct {
		Src string `json:"src"`
		span
	}
	enc := json.NewEncoder(w)
	for _, s := range t.log.spans {
		if err := enc.Encode(line{"benchmark", s}); err != nil {
			return err
		}
	}
	for _, s := range t.rec.Spans() {
		if s.Instant {
			continue
		}
		sp := span{ID: int(s.ID), Parent: int(s.Parent), Name: s.Name, Start: s.Start, End: s.End()}
		if err := enc.Encode(line{"program", sp}); err != nil {
			return err
		}
	}
	return nil
}
