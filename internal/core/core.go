// Package core is the public facade of the spatial-join library. It wires
// together the two partition-based join methods the paper studies — PBSM
// (Patel & DeWitt) and S³J (Koudas & Sevcik) — with the improvements of
// Dittrich & Seeger (ICDE 2000): Reference-Point-Method duplicate
// elimination, selectable internal plane-sweep algorithms, and S³J data
// replication.
//
// The entry points are Join (callback-driven, pipelined) and Open (an
// open-next-close iterator in the sense of Graefe's operator model, so a
// spatial join can sit inside an operator tree and produce results
// incrementally — one of the paper's core arguments for on-line duplicate
// removal).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/shj"
	"spatialjoin/internal/sssj"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Method selects the join algorithm.
type Method string

const (
	// PBSM is the Partition Based Spatial-Merge Join.
	PBSM Method = "pbsm"
	// S3J is the Size Separation Spatial Join.
	S3J Method = "s3j"
	// SSSJ is the Scalable Sweeping-Based Spatial Join [APR+ 98].
	SSSJ Method = "sssj"
	// SHJ is the Spatial Hash Join of Lo & Ravishankar [LR 96].
	SHJ Method = "shj"
)

// Config selects and tunes a spatial join. The zero value is not valid:
// Memory must be positive. All other fields have sensible defaults.
type Config struct {
	// Method is the join algorithm; default PBSM.
	Method Method
	// Memory is the main-memory budget in bytes available to the join
	// (the M of the paper). Required.
	Memory int64
	// Algorithm is the internal in-memory join algorithm. Empty leaves
	// the choice to the method, which defaults to its best general
	// choice: the list sweep for PBSM and SHJ, nested loops for S³J
	// (§3.2.2 and §4.4.1), the trie sweep for SSSJ.
	Algorithm sweep.Kind
	// Parallel is the worker count for the parallel phases of every
	// method (PBSM's planner, two partitioners, partition pairs and
	// stripes; SHJ's bucket joins; S³J's two partitioners; the run
	// formation and merge groups of every external sort and forced
	// merge), all running on the shared scheduler of package sched, and
	// from two on S³J's synchronized scan overlaps its merge with its
	// cell joins. Zero selects GOMAXPROCS; 1 (or negative) forces
	// sequential execution. The result set, its emission order and the
	// total simulated I/O are identical at every worker count. Wall-clock
	// time is not, and nor is PBSM's per-phase I/O split or the
	// first-result I/O clock of PBSM and S³J (see pbsm.Stats.PhaseIO and
	// the FirstResultIO of both).
	Parallel int

	// PBSMDup selects PBSM's duplicate-elimination strategy; default
	// DupRPM (the paper's improvement). Ignored for S³J.
	PBSMDup pbsm.DupMethod
	// PBSMTuneFactor and PBSMTilesPerPartition tune PBSM's
	// partitioning; zero values select the package defaults.
	PBSMTuneFactor        float64
	PBSMTilesPerPartition int
	// PBSMHashTiles selects the paper's tile→partition hash instead of
	// the balanced table PBSM plans from the data (pbsm.Config.HashTiles);
	// for reproducing figures that measure the hash plan. The sharded
	// executor has no such mode: with Shards > 1 it is rejected.
	PBSMHashTiles bool

	// Shards, when > 1, executes the join as that many worker OS
	// processes under the coordinator of package shard: each shard is
	// its own fault domain with a private disk and temp-file registry,
	// supervised with heartbeats and restarted (or absorbed) on failure.
	// Requires Method PBSM with DupRPM — a per-partition output that is
	// globally duplicate-free on its own is what makes multi-process
	// merge correct, so DupSort is rejected — and the
	// shard package linked in (importing it registers the executor). The
	// result set AND its emission order are identical at every shard
	// count. Fields Disk and Trace's I/O attribution do not apply to
	// the worker processes' private disks; I/O is aggregated in
	// Result.IO instead.
	Shards int
	// ShardEndpoints lists resident worker addresses (host:port) for
	// sharded execution: shards then run over the TCP transport against
	// those workers (started with sjworkerd), degrading to locally
	// spawned processes — and finally to in-process absorption — when
	// the fleet is unreachable.
	// Requires Shards > 1; empty means local worker processes only.
	ShardEndpoints []string

	// S3JMode selects original or replicated S³J (ModeReplicate is the
	// paper's improvement); the zero value is ModeOriginal. Ignored for
	// PBSM.
	S3JMode s3j.Mode
	// S3JLevels is the number of grid levels; zero selects the default.
	S3JLevels int
	// Curve is the locational-code curve for S³J; default Peano.
	Curve sfc.Curve

	// Disk supplies the simulated device; nil creates a fresh default
	// disk per join. Provide one to share cost accounting across calls.
	Disk *diskio.Disk
	// PageSize, PT and Transfer configure the fresh disk when Disk is
	// nil; zero values select the diskio defaults.
	PageSize int
	PT       float64
	Transfer time.Duration
	// BufPages caps every file stream's buffer at this many pages, the
	// paper's fixed buffer; zero lets each stream take its share of
	// Memory (iocost.Device.BufFor, ChunkBuf, LoadBuf), so the join makes
	// fewer, larger requests.
	BufPages int

	// Trace receives the hierarchical span record of the join: phase
	// spans, I/O deltas and instant events (faults, cancellation). It
	// holds no counts — those are Metrics'. Nil (the default) disables
	// instrumentation; the join then pays only a nil pointer test per
	// instrumentation site. A Recorder observes one disk at a time, so
	// attach a separate Recorder to each concurrently-running join.
	Trace *trace.Recorder

	// Ctx, when non-nil, makes the join cancelable: every long-running
	// loop and every disk request checks it cooperatively, and a canceled
	// join unwinds with a JoinError of kind Canceled (or DeadlineExceeded)
	// naming the phase it died in, having swept all its temp files. A
	// wall-time bound is a context.WithTimeout. Nil (the default)
	// disables cancellation at no cost.
	Ctx context.Context

	// Metrics, when non-nil, publishes live process-lifetime series for
	// this join and every layer under it: disk request/byte/retry/fault
	// counters, per-pool scheduler occupancy, method counters
	// (replication copies, RPM tests, duplicates suppressed, sweep tests
	// and touches, fill histograms), checkpoint counts, shard
	// supervision, and the per-join progress estimator (join.progress.*)
	// behind `sjoin -progress` and the /metrics endpoint. Share ONE Registry per process; because
	// counters are process-lifetime totals, per-join deltas come from
	// Snapshot().Sub(before). The progress gauges describe one join at
	// a time — concurrent joins sharing a registry still get exact
	// counters but an interleaved progress signal. Nil (the default)
	// disables everything at one pointer test per site.
	Metrics *metrics.Registry
}

func (c *Config) method() Method {
	if c.Method == "" {
		return PBSM
	}
	return c.Method
}

func (c *Config) disk() *diskio.Disk {
	if c.Disk != nil {
		return c.Disk
	}
	return diskio.NewDisk(c.PageSize, c.PT, c.Transfer)
}

// parallel resolves the worker count: 0 = all processors, otherwise the
// configured value (1 or negative = serial).
func (c *Config) parallel() int {
	if c.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallel
}

// Result reports what a join did: result cardinality, I/O activity,
// measured CPU time, and the simulated total runtime in the cost model of
// §2 (CPU + positioning/transfer time of all intermediate I/O; reading
// the inputs and writing the output are free).
type Result struct {
	Method  Method
	Results int64

	IO  diskio.Stats
	CPU time.Duration
	// IOTime is the simulated time of the charged I/O.
	IOTime time.Duration
	// Total is CPU + IOTime, the figure the paper plots as runtime.
	Total time.Duration

	// PBSMStats is populated when Method == PBSM.
	PBSMStats *pbsm.Stats
	// S3JStats is populated when Method == S3J.
	S3JStats *s3j.Stats
	// SSSJStats is populated when Method == SSSJ.
	SSSJStats *sssj.Stats
	// SHJStats is populated when Method == SHJ.
	SHJStats *shj.Stats
}

// Join computes the spatial intersection join of R and S in the filter
// step sense: every pair of KPEs with intersecting rectangles is
// delivered to emit exactly once. The inputs are not modified.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error) {
	if cfg.Memory <= 0 {
		return Result{}, joinerr.Wrap("core", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	if !cfg.Algorithm.Valid() {
		return Result{}, joinerr.Wrap("core", "config", fmt.Errorf("unknown Config.Algorithm %q: want %q, %q or %q",
			cfg.Algorithm, sweep.NestedLoopsKind, sweep.ListKind, sweep.TrieKind))
	}

	// Input validation below is a per-record scan over arbitrarily large
	// inputs, so it honors the same checkpoints as every other record
	// loop.
	chk := govern.NewCheck(cfg.Ctx)

	// The two relations validate independently, as two scheduler units:
	// against an in-memory join the serial scan was a tenth of the wall
	// time. R's verdict is reported first, whichever unit finished first.
	var invalid [2]error
	err := sched.Run(2, sched.Options{Workers: cfg.parallel(), Cancel: chk}, func(_, i int) error {
		if i == 0 {
			invalid[0] = validateInput("R", R, chk)
		} else {
			invalid[1] = validateInput("S", S, chk)
		}
		return nil
	})
	if err = cmp.Or(err, invalid[0], invalid[1]); err != nil {
		return Result{}, joinerr.Wrap("core", "validate", err)
	}

	// Sharded execution delegates to the registered multi-process
	// executor before this process's disk or spans are touched: the
	// shard coordinator does its own tracing against cfg.Trace.
	if cfg.Shards > 1 {
		if cfg.method() != PBSM {
			return Result{}, joinerr.Wrap("core", "config",
				fmt.Errorf("Shards=%d requires Method PBSM, got %q", cfg.Shards, cfg.method()))
		}
		if cfg.PBSMDup != pbsm.DupRPM {
			return Result{}, joinerr.Wrap("core", "config",
				fmt.Errorf("Shards=%d requires PBSMDup %v, got %v: sharded merge relies on partition output that is duplicate-free on its own", cfg.Shards, pbsm.DupRPM, cfg.PBSMDup))
		}
		if cfg.PBSMHashTiles {
			return Result{}, joinerr.Wrap("core", "config",
				fmt.Errorf("Shards=%d is incompatible with PBSMHashTiles: the hash plan exists for the single-process paper reproduction", cfg.Shards))
		}
		if sharder == nil {
			return Result{}, joinerr.Wrap("core", "config",
				fmt.Errorf("Shards=%d but no shard executor is linked in (import spatialjoin/internal/shard)", cfg.Shards))
		}
		return sharder(R, S, cfg, emit)
	}
	if len(cfg.ShardEndpoints) > 0 {
		return Result{}, joinerr.Wrap("core", "config",
			fmt.Errorf("ShardEndpoints requires Shards > 1, got Shards=%d", cfg.Shards))
	}

	disk := cfg.disk()
	if cfg.Disk != nil {
		// A caller-supplied disk may be shared by concurrent Joins, and
		// Result.IO is the delta between two snapshots of its counters —
		// interleaved joins would attribute each other's I/O. Serialize
		// whole joins per shared disk so every delta is self-consistent.
		// Fresh per-join disks (cfg.Disk == nil) skip the lock.
		mu := lockForDisk(cfg.Disk)
		mu.Lock()
		defer mu.Unlock()
	}
	rec := cfg.Trace
	if rec != nil {
		rec.SetIOSource(disk.Stats)
		disk.SetTracer(rec)
		defer disk.SetTracer(nil)
	}
	if chk != nil {
		// Every disk request now polls the context before touching the
		// device, bounding a canceled join's residual I/O to one request.
		// Joins on a shared disk are serialized above, so the hook cannot
		// observe another join's context.
		disk.SetCancel(chk.Now)
		defer disk.SetCancel(nil)
	}
	// Metrics mirror the tracer attach/detach pattern: the registry is
	// process-lifetime, the disk attachment is per-join (shared disks are
	// serialized above, so detaching on exit never races another join).
	if cfg.Metrics != nil {
		disk.SetMetrics(cfg.Metrics)
		defer disk.SetMetrics(nil)
	}
	jm := newJoinMetrics(cfg.Metrics)
	jm.begin()
	prog := metrics.NewProgress(cfg.Metrics)
	before := disk.Stats()
	res := Result{Method: cfg.method()}
	root := rec.Begin("join:" + string(res.Method))
	defer root.End()
	root.AddRecords(int64(len(R) + len(S)))
	// The poll count funds the overhead-budget test: per-poll cost times
	// this counter must stay within budget. Recorded on every exit.
	defer func() { jm.checks.Add(chk.Polls()) }()

	// fail routes every error exit through one place so aborted joins
	// leave a footprint: a "cancel" instant event naming the dying phase
	// in the trace and one more core.joins.aborted in the registry.
	fail := func(err error) (Result, error) {
		jm.end(0, err)
		if joinerr.IsCanceled(err) {
			phase := ""
			var je *joinerr.JoinError
			if errors.As(err, &je) {
				phase = je.Phase
			}
			rec.Instant("cancel", trace.Attr{Key: "phase", Str: phase})
			jm.aborted.Inc()
		}
		return Result{}, err
	}

	switch res.Method {
	case PBSM:
		st, err := pbsm.Join(R, S, pbsm.Config{
			Disk:              disk,
			Memory:            cfg.Memory,
			Algorithm:         cfg.Algorithm,
			Dup:               cfg.PBSMDup,
			TuneFactor:        cfg.PBSMTuneFactor,
			TilesPerPartition: cfg.PBSMTilesPerPartition,
			HashTiles:         cfg.PBSMHashTiles,
			Parallel:          cfg.parallel(),
			BufPages:          cfg.BufPages,
			Trace:             root,
			Cancel:            chk,
			Metrics:           cfg.Metrics,
			Progress:          prog,
		}, emit)
		if err != nil {
			return fail(err)
		}
		res.PBSMStats = &st
		res.Results = st.Results
		res.CPU = st.TotalCPU()
	case S3J:
		st, err := s3j.Join(R, S, s3j.Config{
			Disk:      disk,
			Memory:    cfg.Memory,
			Mode:      cfg.S3JMode,
			Algorithm: cfg.Algorithm,
			Curve:     cfg.Curve,
			Levels:    cfg.S3JLevels,
			BufPages:  cfg.BufPages,
			Parallel:  cfg.parallel(),
			Trace:     root,
			Cancel:    chk,
			Metrics:   cfg.Metrics,
			Progress:  prog,
		}, emit)
		if err != nil {
			return fail(err)
		}
		res.S3JStats = &st
		res.Results = st.Results
		res.CPU = st.TotalCPU()
	case SSSJ:
		st, err := sssj.Join(R, S, sssj.Config{
			Disk:      disk,
			Memory:    cfg.Memory,
			Algorithm: cfg.Algorithm,
			BufPages:  cfg.BufPages,
			Parallel:  cfg.parallel(),
			Trace:     root,
			Cancel:    chk,
			Metrics:   cfg.Metrics,
		}, emit)
		if err != nil {
			return fail(err)
		}
		res.SSSJStats = &st
		res.Results = st.Results
		res.CPU = st.TotalCPU()
	case SHJ:
		st, err := shj.Join(R, S, shj.Config{
			Disk:      disk,
			Memory:    cfg.Memory,
			Algorithm: cfg.Algorithm,
			BufPages:  cfg.BufPages,
			Parallel:  cfg.parallel(),
			Trace:     root,
			Cancel:    chk,
			Metrics:   cfg.Metrics,
			Progress:  prog,
		}, emit)
		if err != nil {
			return fail(err)
		}
		res.SHJStats = &st
		res.Results = st.Results
		res.CPU = st.TotalCPU()
	default:
		return fail(joinerr.Wrap("core", "config", fmt.Errorf("unknown method %q", cfg.Method)))
	}

	res.IO = disk.Stats().Sub(before)
	res.IOTime = disk.CostTime(res.IO.CostUnits)
	res.Total = res.CPU + res.IOTime
	root.SetAttr("results", res.Results)
	prog.Done()
	jm.end(res.Results, nil)
	return res, nil
}

// sharder is the multi-process executor package shard installs via
// RegisterSharder; a function variable (not an import) because the
// shard package imports core for its Config/Result types — the same
// inversion that keeps core free of process-management code.
var sharder func(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error)

// RegisterSharder installs the sharded executor behind Config.Shards.
// Called from the shard package's init; last registration wins.
func RegisterSharder(fn func(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Result, error)) {
	sharder = fn
}

// joinLocks serializes Joins sharing one caller-supplied Disk (see
// Join). Entries are one mutex per distinct shared disk and are never
// removed; callers supply a handful of long-lived disks, not an
// unbounded stream.
var joinLocks sync.Map // *diskio.Disk -> *sync.Mutex

func lockForDisk(d *diskio.Disk) *sync.Mutex {
	mu, _ := joinLocks.LoadOrStore(d, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// validateInput rejects geometry no join method can process correctly:
// non-finite coordinates break every comparison-based sweep and the
// grid-cell arithmetic (NaN compares false with everything, so such a
// rectangle silently joins nothing or everything depending on the
// method), and inverted rectangles would make replication and the
// reference-point test disagree about coverage. Rejecting them up front
// turns a silent wrong answer into a descriptive error.
func validateInput(rel string, ks []geom.KPE, chk *govern.Check) error {
	st := chk.Stride()
	for i := range ks {
		if err := st.Point(); err != nil {
			return err
		}
		r := ks[i].Rect
		for _, v := range [...]float64{r.XL, r.YL, r.XH, r.YH} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("invalid input %s[%d] (id %d): rectangle [%g,%g]x[%g,%g] has a non-finite coordinate",
					rel, i, ks[i].ID, r.XL, r.XH, r.YL, r.YH)
			}
		}
		if r.XL > r.XH || r.YL > r.YH {
			return fmt.Errorf("invalid input %s[%d] (id %d): inverted rectangle [%g,%g]x[%g,%g] (low edge beyond high edge)",
				rel, i, ks[i].ID, r.XL, r.XH, r.YL, r.YH)
		}
	}
	return nil
}

// Collect runs Join and gathers all result pairs in memory, convenient
// for small joins and tests.
func Collect(R, S []geom.KPE, cfg Config) ([]geom.Pair, Result, error) {
	var pairs []geom.Pair
	res, err := Join(R, S, cfg, func(p geom.Pair) { pairs = append(pairs, p) })
	return pairs, res, err
}

// Iterator delivers join results one at a time through the
// open-next-close interface [Gra 93], allowing the join to feed an
// operator tree. With PBSM+RPM (and S³J) the first result arrives as soon
// as the first partition pair is joined; with the original PBSM
// (DupSort), Next blocks until the final sort phase begins output — the
// pipelining difference §3.1 of the paper describes.
type Iterator struct {
	pairs  chan geom.Pair
	done   chan struct{}
	result Result
	err    error
	fin    chan struct{}
}

// joinFn is the join entry the producer goroutine runs; a package
// variable so tests can substitute a misbehaving join.
var joinFn = Join

// Open starts the join and returns an iterator over its results. Close
// must be called to release the producing goroutine.
//
// The producer goroutine is panic-safe: a panic anywhere inside the join
// is recovered and surfaced through Err instead of crashing the process,
// and the iterator still terminates cleanly.
func Open(R, S []geom.KPE, cfg Config) *Iterator {
	it := &Iterator{
		pairs: make(chan geom.Pair, 64),
		done:  make(chan struct{}),
		fin:   make(chan struct{}),
	}
	// The producer's emit path honors the join's context, or a canceled
	// join with an absent consumer would block forever on a full pairs
	// channel.
	var ctxDone <-chan struct{}
	if cfg.Ctx != nil {
		ctxDone = cfg.Ctx.Done()
	}
	go func() {
		defer close(it.fin)
		defer close(it.pairs)
		// Registered last so it runs first: err must be set before the
		// channel closes wake up the consumer.
		defer func() {
			if r := recover(); r != nil {
				it.err = fmt.Errorf("core: join panicked: %v", r)
			}
		}()
		res, err := joinFn(R, S, cfg, func(p geom.Pair) {
			select {
			case it.pairs <- p:
			case <-it.done:
				// Consumer closed early: discard remaining results.
			case <-ctxDone:
				// Canceled: the join's own checkpoints unwind it; just
				// stop delivering.
			}
		})
		it.result, it.err = res, err
	}()
	return it
}

// Next returns the next result pair; ok is false when the join has
// finished or failed (check Err).
func (it *Iterator) Next() (p geom.Pair, ok bool) {
	p, ok = <-it.pairs
	return p, ok
}

// Close releases the iterator. It is safe to call at any time, also
// before exhausting the results.
func (it *Iterator) Close() {
	select {
	case <-it.done:
	default:
		close(it.done)
	}
	// Drain so the producer can finish.
	for range it.pairs {
	}
	<-it.fin
}

// Err returns the join error, valid after the iterator is exhausted or
// closed.
func (it *Iterator) Err() error {
	<-it.fin
	return it.err
}

// Result returns the run statistics, valid after the iterator is
// exhausted or closed.
func (it *Iterator) Result() Result {
	<-it.fin
	return it.result
}
