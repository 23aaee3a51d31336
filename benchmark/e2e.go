package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/trace"
)

// setupReps is how often a run sets up from scratch; setup_s is the
// median. Every set-up is followed by at least one timed join, however
// short -seconds is.
const setupReps = 3

// options are the settings of one invocation.
type options struct {
	seed    int64
	scale   float64
	seconds float64
	// corrupt is a test hook: it runs after the oracle is built and may
	// damage it, so that every join must then count as failed.
	corrupt func(*oracle)
}

// prepared is one completed set-up: inputs, their oracle, the join
// configuration and a warmed-up program.
type prepared struct {
	w   workload
	in  inputs
	o   *oracle
	cfg core.Config
	// reg is non-nil on a sharded workload only; see join.
	reg *metrics.Registry
}

// joinSample is what the benchmark keeps of one core.Join.
type joinSample struct {
	wall, first time.Duration
	allocBytes  uint64
	res         core.Result
	// failure is empty when the join returned without error and
	// reproduced the oracle.
	failure string
}

// tally counts joins attempted and failed over one run.
type tally struct {
	attempted, failed int
	firstFailure      string
}

// note counts one attempt; failure is empty when it succeeded.
func (t *tally) note(failure string) {
	t.attempted++
	if failure != "" {
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = failure
		}
	}
}

// setUp generates the inputs, builds the oracle and runs the one
// discarded warm-up join; the caller times it as setup_s.
func setUp(w workload, opt options, t *tally) (*prepared, error) {
	in := w.generate(opt.seed, opt.scale)
	if err := w.checkPinned(opt.seed, opt.scale, in); err != nil {
		return nil, err
	}
	p := &prepared{w: w, in: in, o: newOracle(opt.seed, in.R, in.S), cfg: w.config(in)}
	if opt.corrupt != nil {
		opt.corrupt(p.o)
	}
	if p.cfg.Shards > 1 {
		// core.Result carries no shard statistics, so the coordinator's
		// counters are read from a metrics registry: it is the only way
		// to see, through core.Join, that a shard fell back to running
		// in-process. The registry costs the coordinator a few counter
		// increments per join and the workers nothing.
		p.reg = metrics.New()
		p.cfg.Metrics = p.reg
	}
	t.note(p.join(nil).failure)
	return p, nil
}

// join runs one core.Join, closed loop, and checks its output. rec is
// nil for an untraced join.
func (p *prepared) join(rec *trace.Recorder) joinSample {
	cfg := p.cfg
	cfg.Trace = rec
	var before metrics.Snapshot
	if p.reg != nil {
		before = p.reg.Snapshot()
	}
	var s joinSample
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	chk := p.o.newChecker(func() { s.first = time.Since(start) })
	res, err := core.Join(p.in.R, p.in.S, cfg, chk.emit)
	s.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.res = res
	switch {
	case err != nil:
		s.failure = err.Error()
	case res.Results != chk.count:
		s.failure = "Result.Results differs from the number of pairs emitted"
	default:
		s.failure = chk.verdict()
	}
	if s.failure == "" && p.reg != nil {
		parts := pbsm.PlanGrid(len(p.in.R), len(p.in.S), pbsm.Config{Memory: cfg.Memory}).Parts
		s.failure = shardFallback(p.reg.Snapshot().Sub(before), cfg.Shards, parts)
	}
	return s
}

// shardFallback names the reason a sharded join must not be measured as
// one: anything but one clean worker process per shard and one seal per
// partition.
func shardFallback(d metrics.Snapshot, shards, partitions int) string {
	for _, name := range []string{"shard.restarts", "shard.absorbed", "shard.degraded", "shard.kills"} {
		if d.Value(name) != 0 {
			return fmt.Sprintf("sharded join fell back: %s = %g", name, d.Value(name))
		}
	}
	if got := d.Value("shard.spawns"); got != float64(shards) {
		return fmt.Sprintf("sharded join started %g worker processes, want %d", got, shards)
	}
	if got := d.Value("shard.seals"); got != float64(partitions) {
		return fmt.Sprintf("sharded join sealed %g partitions, want %d", got, partitions)
	}
	return ""
}

// e2eReport is the outcome of one end-to-end run of one workload.
type e2eReport struct {
	in        inputs
	results   int64
	timed     int
	wallRange [2]float64 // min and max join wall, for information
	tally
	m values
}

// runEndToEnd measures one workload with tracing off, in setupReps
// rounds: a round sets up from scratch and then runs timed joins, one at
// a time, for its share of opt.seconds. Timing the joins of one run over
// several set-ups keeps a lucky or unlucky placement of the inputs in
// memory from colouring the whole run.
func runEndToEnd(w workload, opt options) (*e2eReport, error) {
	rep := &e2eReport{m: values{}}
	var p *prepared
	var setups, walls, firsts, allocs []float64
	var units float64
	for round := 0; round < setupReps; round++ {
		p = nil // let the previous inputs go before making the next
		start := time.Now()
		var err error
		if p, err = setUp(w, opt, &rep.tally); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())

		deadline := time.Now().Add(time.Duration(opt.seconds / setupReps * float64(time.Second)))
		for timed := 0; timed == 0 || time.Now().Before(deadline); timed++ {
			s := p.join(nil)
			if len(walls) == 0 {
				units = s.res.IO.CostUnits
			} else if s.failure == "" && s.res.IO.CostUnits != units {
				s.failure = fmt.Sprintf("charged cost units differ between repetitions: %g then %g", units, s.res.IO.CostUnits)
			}
			rep.note(s.failure)
			walls = append(walls, s.wall.Seconds())
			firsts = append(firsts, s.first.Seconds())
			allocs = append(allocs, float64(s.allocBytes))
		}
	}
	rep.in, rep.results = p.in, p.o.count
	rep.timed = len(walls)
	sort.Float64s(walls)
	rep.wallRange = [2]float64{walls[0], walls[len(walls)-1]}

	n := float64(p.in.records())
	wall := median(walls)
	rep.m["setup_s"] = median(setups)
	rep.m["join_wall_s"] = wall
	rep.m["records_per_s"] = n / wall
	rep.m["first_result_s"] = median(firsts)
	rep.m["io_amplification"] = 1 + units/inputPages(p.in)
	rep.m["alloc_bytes_per_record"] = median(allocs) / n
	return rep, nil
}

// inputPages is the size of both relations in pages of the default disk.
func inputPages(in inputs) float64 {
	return float64(in.bytes) / diskio.DefaultPageSize
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
