package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Config controls a sharded join.
type Config struct {
	// Shards is the number of worker processes. Values < 2 still run
	// the full coordinator/worker machinery with one worker; the shard
	// count never changes the result set or its order, only the fault
	// isolation and the wall clock.
	Shards int
	// Memory is the full join budget, identical in meaning to
	// core.Config.Memory: it drives the partition-count formula and the
	// repartition recursion in every worker. Required (> 0).
	Memory int64
	// Algorithm selects the internal plane-sweep; default list sweep.
	Algorithm sweep.Kind
	// Dup selects PBSM's duplicate-elimination strategy; default DupRPM.
	// Only the duplicate-free-by-construction methods are shardable:
	// DupRPM and DupTLSP both make every top-level partition pair's
	// output globally duplicate-free on its own, so per-pair sequences
	// merge without a cross-shard dedup phase. DupSort is rejected.
	Dup pbsm.DupMethod
	// TuneFactor, TilesPerPartition and BufPages mirror the
	// pbsm.Config knobs and must match the values a single-process run
	// would use for the determinism contract to hold. BufPages caps
	// every stream of a worker; zero lets each take its share of Memory.
	// Shard assignment ranks pairs in unit requests (iocost.PairCost)
	// either way.
	TuneFactor        float64
	TilesPerPartition int
	BufPages          int
	// PageSize, PT, Transfer parameterize each worker's private
	// simulated disk; non-positive values select the diskio defaults.
	PageSize int
	PT       float64
	Transfer time.Duration

	// WorkerCmd is the argv of a worker process; default
	// {os.Executable(), "-shard-worker"}, which is what the sjoin
	// binary exposes. Test binaries install a helper-process
	// command via HelperWorkerCmd. WorkerEnv appends to the inherited
	// environment.
	WorkerCmd []string
	WorkerEnv []string

	// TmpRoot hosts the per-run scratch directory; "" means the OS
	// default temp dir.
	TmpRoot string

	// Endpoints lists resident worker addresses (host:port). When set,
	// shards run over the TCP transport against those workers, falling
	// back to locally spawned processes — and finally to in-process
	// absorption — when the fleet is unreachable (DESIGN.md §14). Empty
	// means the pipe transport only.
	Endpoints []string
	// Pool, when non-nil, supplies an existing resident worker pool
	// (shared across joins, or one with its own dialer, timeouts or
	// quarantine threshold) instead of building a default one from
	// Endpoints. The join does NOT close a caller-supplied pool.
	Pool *Pool

	// Chaos injects deterministic worker self-kills; see ChaosSpec.
	Chaos *ChaosSpec

	// Trace receives shard spans, kill/retry/absorb instants and
	// counters; nil disables instrumentation.
	Trace *trace.Recorder
	// Metrics, when non-nil, publishes the coordinator's live view:
	// spawn/kill/restart/absorb/rederive/seal counters, a per-shard
	// heartbeat-age gauge sampled by the supervision watchdog, and the
	// recovery-latency histogram. Same registry the rest of the stack
	// shares; nil disables it.
	Metrics *metrics.Registry
	// Ctx cancels the whole join; nil means background.
	Ctx context.Context
}

// pbsmConfig is the PBSM configuration the coordinator plans with (no
// disk) and absorbs shards with: what JobSpec.pbsmConfig makes of the job
// frame, so it cannot differ from a worker's. The per-process handles
// (Parallel, Cancel, Trace, Metrics) are the caller's to add.
func (cfg *Config) pbsmConfig(disk *diskio.Disk) pbsm.Config {
	return cfg.jobSpec(pbsm.GridSpec{}, 0, 0, nil, "").pbsmConfig(disk)
}

// jobSpec is the job frame of one attempt: the shard's partitions, the
// plan, and every PBSM and disk parameter the worker must share with the
// coordinator.
func (cfg *Config) jobSpec(gs pbsm.GridSpec, id, attempt int, parts []int, tmpDir string) *JobSpec {
	return &JobSpec{
		Proto:             ProtoVersion,
		Shard:             id,
		Attempt:           attempt,
		Parts:             parts,
		Grid:              gs,
		Memory:            cfg.Memory,
		Dup:               int(cfg.Dup),
		Algorithm:         cfg.Algorithm,
		TuneFactor:        cfg.TuneFactor,
		TilesPerPartition: cfg.TilesPerPartition,
		BufPages:          cfg.BufPages,
		PageSize:          cfg.PageSize,
		PT:                cfg.PT,
		TransferNS:        cfg.Transfer.Nanoseconds(),
		TmpDir:            tmpDir,
		Kill:              cfg.Chaos.lookup(id, attempt),
	}
}

// ChaosKill schedules one deterministic worker self-kill.
type ChaosKill struct {
	Shard   int
	Attempt int
	Kill    KillSpec
}

// ChaosSpec is the coordinator-side chaos schedule: each entry makes
// the given shard's given attempt carry a KillSpec in its job frame.
// Killing every attempt of a shard exercises the absorb path.
type ChaosSpec struct {
	Kills []ChaosKill
}

func (c *ChaosSpec) lookup(shard, attempt int) *KillSpec {
	if c == nil {
		return nil
	}
	for i := range c.Kills {
		if c.Kills[i].Shard == shard && c.Kills[i].Attempt == attempt {
			k := c.Kills[i].Kill
			return &k
		}
	}
	return nil
}

// Stats counts what the coordinator did; the chaos suite cross-checks
// them against the trace's kill/retry/absorb instants.
type Stats struct {
	Shards     int // worker processes planned
	Partitions int // top-level partitions

	// Seals counts partition seal events. Exactly one seal per
	// partition is the invariant that lets a duplicate-free-by-
	// construction method (DupRPM, DupTLSP) shard at all: the merge
	// concatenates sealed buffers without any cross-partition dedup, so
	// Join cross-checks Seals == Partitions before reporting success.
	Seals int

	Spawns    int // worker processes started (restarts included)
	Kills     int // attempts that ended with a dead worker process
	Restarts  int // restart attempts after failures
	Rederived int // partitions handed again to a retry or an absorb (re-shipped from the one scatter)
	Absorbed  int // shards absorbed into the coordinator after restart exhaustion

	RemoteLeases int // attempts executed on leased resident workers
	Degraded     int // shards that fell from the TCP transport to local spawns

	Recoveries int   // failures recovered from (restart or absorb)
	RecoveryNS int64 // total detection→first-progress latency

	WorkerLiveFiles int // files left on worker disks after their sweeps (leak if ≠ 0)
}

// Result is what a sharded join reports, mirroring core.Result: the IO
// and CPU aggregates span every worker process plus any absorbed local
// work.
type Result struct {
	Results int64
	IO      diskio.Stats
	CPU     time.Duration
	IOTime  time.Duration
	Total   time.Duration
	Stats   Stats
}

// coordinator is the per-join state of a sharded run.
type coordinator struct {
	cfg Config
	// rsl/ssl hold every top-level partition's records, scattered once at
	// plan time; read-only, shared by all attempts and absorbs.
	rsl, ssl map[int][]geom.KPE
	gs       pbsm.GridSpec
	chk      *govern.Check
	rec      *trace.Recorder
	root     *trace.Span
	man      *manifest
	met      *shardMetrics
	st       *joinState
	// pool, when set, is the ladder's first rung: attempts lease resident
	// workers from it before falling back to spawning local ones.
	pool *Pool
}

// joinState is the shared, mutex-guarded merge state: per-partition
// result buffers, seal flags, and the collector that restores serial
// emission order. Lock order: st.mu before the collector's internal
// mutex (seal calls Emit/Done while holding st.mu); the sink must take
// no locks.
type joinState struct {
	mu      sync.Mutex
	col     *sched.Collector
	bufs    map[int][]geom.Pair // guarded by mu
	sealed  []bool              // guarded by mu
	stats   Stats               // guarded by mu
	met     *shardMetrics
	pending map[int]time.Time // guarded by mu; shard → failure detection time
	// Aggregates folded in from worker reports and absorb runs.
	ioAgg  diskio.Stats  // guarded by mu
	cpuAgg time.Duration // guarded by mu
	// results is written only by the collector sink, which Emit/Done
	// invoke with st.mu held.
	results int64 // guarded by mu
}

func (st *joinState) locked(f func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f()
}

// addPairs buffers a pairs frame. The partition must be in the
// attempt's assignment and unsealed.
func (st *joinState) addPairs(part int, allowed map[int]bool, ps []geom.Pair) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !allowed[part] {
		return protoErrf("pairs frame for partition %d outside the attempt's assignment", part)
	}
	if st.sealed[part] {
		return protoErrf("pairs frame for already-sealed partition %d", part)
	}
	st.bufs[part] = append(st.bufs[part], ps...)
	return nil
}

// seal finalizes one partition: cross-checks the worker's count,
// releases the buffered pairs through the collector (which emits in
// partition order), and records recovery latency when the owning shard
// had a pending failure.
func (st *joinState) seal(part, shard int, allowed map[int]bool, count int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !allowed[part] {
		return protoErrf("seal frame for partition %d outside the attempt's assignment", part)
	}
	if st.sealed[part] {
		return protoErrf("seal frame for already-sealed partition %d", part)
	}
	if int64(len(st.bufs[part])) != count {
		return protoErrf("partition %d sealed with %d pairs but %d arrived", part, count, len(st.bufs[part]))
	}
	st.sealLocked(part, shard)
	return nil
}

// sealLocked releases partition part; caller holds st.mu.
func (st *joinState) sealLocked(part, shard int) {
	for _, p := range st.bufs[part] {
		st.col.Emit(part, p)
	}
	delete(st.bufs, part)
	st.sealed[part] = true
	st.stats.Seals++
	st.col.Done(part)
	st.met.seals.Inc()
	st.recoverLocked(shard)
}

// recoverLocked closes a pending failure window for shard: detection →
// first subsequent progress.
func (st *joinState) recoverLocked(shard int) {
	t, ok := st.pending[shard]
	if !ok {
		return
	}
	delete(st.pending, shard)
	d := time.Since(t).Nanoseconds()
	st.stats.Recoveries++
	st.stats.RecoveryNS += d
	st.met.recovery.Observe(float64(d) / float64(time.Second))
}

// noteFailure discards the unsealed buffers of a failed attempt and
// opens the shard's recovery window.
func (st *joinState) noteFailure(shard int, parts []int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, p := range parts {
		if !st.sealed[p] {
			delete(st.bufs, p)
		}
	}
	if _, ok := st.pending[shard]; !ok {
		st.pending[shard] = time.Now()
	}
}

// unsealed filters parts down to those not yet sealed.
func (st *joinState) unsealed(parts []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		if !st.sealed[p] {
			out = append(out, p)
		}
	}
	return out
}

// manifest tracks every scratch directory the run may create, so the
// coordinator can sweep them after ANY worker exit — clean, crashed or
// SIGKILLed. Directories are registered BEFORE the owning worker is
// spawned; there is no window in which an abnormal exit orphans files.
type manifest struct {
	mu   sync.Mutex
	root string
	dirs map[string]bool // guarded by mu
}

func (m *manifest) add(dir string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs == nil {
		m.dirs = make(map[string]bool)
	}
	m.dirs[dir] = true
}

// sweep removes one registered directory (after its worker exited).
func (m *manifest) sweep(dir string) {
	m.mu.Lock()
	delete(m.dirs, dir)
	m.mu.Unlock()
	_ = os.RemoveAll(dir)
}

// sweepRoot removes the per-run root and everything beneath it — the
// backstop covering coordinator unwinding with workers mid-flight.
func (m *manifest) sweepRoot() {
	m.mu.Lock()
	m.dirs = nil
	root := m.root
	m.mu.Unlock()
	if root != "" {
		_ = os.RemoveAll(root)
	}
}

// MaxRestarts bounds restarts per shard: past it the shard is absorbed
// into the coordinator process.
const MaxRestarts = 2

// heartbeatEvery is how often a worker sends a beat frame; the
// coordinator kills a worker that sent no frame at all for stallTimeout,
// which is generous because heartbeats make healthy silence impossible.
// stallTimeout is a variable only so the watchdog's test can shorten it.
const heartbeatEvery = 100 * time.Millisecond

var stallTimeout = 5 * time.Second

// restartBackoff paces shard restarts, and a pool's redials unless its
// PoolConfig names another policy: capped exponential with deterministic
// jitter.
var restartBackoff = &Backoff{Base: 5 * time.Millisecond, Cap: 250 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 1}

func (c *Config) workerCmd() ([]string, error) {
	if len(c.WorkerCmd) > 0 {
		return c.WorkerCmd, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return []string{exe, "-shard-worker"}, nil
}

// Join runs the sharded join: plan once, assign partitions to shards,
// execute each shard in a worker process under supervision, and merge
// the sealed partition results back into exact serial emission order.
// The emitted sequence — set AND order — is identical to a
// single-process PBSM+RPM run of the same configuration, at any shard
// count, under any schedule of worker failures the coordinator
// survives.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (_ Result, retErr error) {
	if cfg.Memory <= 0 {
		return Result{}, joinerr.Wrap("shard", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	switch cfg.Dup {
	case pbsm.DupRPM, pbsm.DupTLSP:
	case pbsm.DupSort:
		return Result{}, joinerr.Wrap("shard", "config",
			fmt.Errorf("sharded execution requires a duplicate-free-by-construction method (DupRPM or DupTLSP), got %v", cfg.Dup))
	default:
		return Result{}, joinerr.Wrap("shard", "config",
			fmt.Errorf("unknown Config.Dup %v (valid: %v, %v, %v)", cfg.Dup, pbsm.DupRPM, pbsm.DupSort, pbsm.DupTLSP))
	}
	workerCmd, err := cfg.workerCmd()
	if err != nil {
		return Result{}, joinerr.Wrap("shard", "config", fmt.Errorf("resolving worker command: %w", err))
	}
	cfg.WorkerCmd = workerCmd

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	chk := govern.NewCheck(ctx)

	// A sharded join never reaches core's fail path, so shard.aborted is
	// its only abort footprint: count every fatal exit from here on once,
	// the scatter included, and nothing the supervisor survived.
	met := newShardMetrics(cfg.Metrics)
	defer func() {
		if retErr != nil && fatalKind(retErr) {
			met.aborted.Inc()
		}
	}()

	rec := cfg.Trace
	root := rec.Begin("shard:join")
	defer root.End()

	// The one plan and the one scatter of the join: the grid with its
	// tile→partition table, then every partition's R and S slices,
	// read-only from here on. Attempts and absorbs index into them, so a
	// retry re-ships instead of re-deriving. The two relations share
	// nothing, so they are counted and scattered as two scheduler units.
	scatter := root.Child("shard-scatter")
	scatter.AddRecords(int64(len(R) + len(S)))
	pcfg := cfg.pbsmConfig(nil)
	pcfg.Parallel, pcfg.Cancel, pcfg.Trace, pcfg.Metrics = 2, chk, scatter, cfg.Metrics
	gs, err := pbsm.PlanGridFor(R, S, pcfg)
	if err != nil {
		scatter.End()
		return Result{}, err
	}
	all := make([]int, gs.Parts)
	for p := range all {
		all[p] = p
	}
	in, sl := [2][]geom.KPE{R, S}, [2]map[int][]geom.KPE{}
	err = sched.Run(2, sched.Options{Workers: 2, Cancel: chk}, func(_, i int) (err error) {
		sl[i], err = pbsm.PartitionSlices(in[i], gs, all, chk)
		return err
	})
	scatter.End()
	if err != nil {
		return Result{}, err
	}
	// The workers' disks are private; this one only stands for their
	// parameters, in the cost model here and in Result.IOTime below.
	nominal := diskio.NewDisk(cfg.PageSize, cfg.PT, cfg.Transfer)
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	assignment := assignShards(sl[0], sl[1], cfg.Memory, iocost.DeviceOf(nominal, cfg.BufPages), shards)

	tmpRoot, err := os.MkdirTemp(cfg.TmpRoot, "sjshard-")
	if err != nil {
		return Result{}, joinerr.WrapAs("shard", "setup", joinerr.KindShard, err)
	}
	man := &manifest{root: tmpRoot}
	defer man.sweepRoot()

	st := &joinState{
		bufs:    make(map[int][]geom.Pair),
		sealed:  make([]bool, gs.Parts),
		stats:   Stats{Shards: len(assignment), Partitions: gs.Parts},
		met:     met,
		pending: make(map[int]time.Time),
	}
	st.col = sched.NewCollector(gs.Parts, func(p geom.Pair) {
		st.results++
		emit(p)
	})
	root.SetAttr("shards", int64(len(assignment)))
	root.SetAttr("partitions", int64(gs.Parts))

	c := &coordinator{
		cfg:  cfg,
		rsl:  sl[0],
		ssl:  sl[1],
		gs:   gs,
		chk:  chk,
		rec:  rec,
		root: root,
		man:  man,
		met:  met,
		st:   st,
		pool: cfg.Pool,
	}
	if c.pool == nil && len(cfg.Endpoints) > 0 {
		c.pool, err = NewPool(PoolConfig{Endpoints: cfg.Endpoints, Metrics: cfg.Metrics, Trace: cfg.Trace})
		if err != nil {
			return Result{}, err
		}
		defer c.pool.Close()
	}

	// One goroutine per shard; the first FATAL error cancels the rest.
	// Shard-local failures never reach this level — they are retried or
	// absorbed inside runShard.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for id, parts := range assignment {
		wg.Add(1)
		go func(id int, parts []int) {
			defer wg.Done()
			if err := c.runShard(runCtx, id, parts); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancelRun()
			}
		}(id, parts)
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}
	// The workers are joined, so nothing else touches the merge state;
	// reading it under st.mu anyway keeps every "guarded by mu" true
	// without an exception to remember.
	if left := st.unsealed(all); len(left) > 0 {
		return Result{}, joinerr.WrapAs("shard", "merge", joinerr.KindShard,
			fmt.Errorf("internal: partition %d never sealed", left[0]))
	}
	var res Result
	st.locked(func() {
		res = Result{Results: st.results, Stats: st.stats, IO: st.ioAgg, CPU: st.cpuAgg}
	})
	if res.Stats.Seals != res.Stats.Partitions {
		return Result{}, joinerr.WrapAs("shard", "merge", joinerr.KindShard,
			fmt.Errorf("internal: %d seal events for %d partitions — duplicate-free merge invariant violated",
				res.Stats.Seals, res.Stats.Partitions))
	}
	res.IOTime = nominal.CostTime(res.IO.CostUnits)
	res.Total = res.CPU + res.IOTime
	return res, nil
}

// runShard supervises one shard to completion: open a worker link,
// monitor it, and on failure discard unsealed work, re-ship it, and
// restart with backoff — or absorb the remainder locally once the
// restart budget is spent. The execution ladder has three rungs: a
// leased resident worker over TCP (when a pool is configured), a
// locally spawned worker process, and finally in-process absorption.
// Falling from the first rung to the second — the network transport
// could not produce ANY usable link, so no worker ran — does not
// consume a restart; every rung preserves the determinism contract.
func (c *coordinator) runShard(ctx context.Context, id int, parts []int) error {
	remote := c.pool != nil
	for attempt := 1; ; attempt++ {
		remaining := c.st.unsealed(parts)
		if len(remaining) == 0 && attempt > 1 {
			// Everything sealed before the worker died (it fell over
			// between its last seal and its done frame): nothing to
			// re-run, only the lost report.
			c.st.locked(func() { c.st.recoverLocked(id) })
			return nil
		}
		if attempt > 1 {
			c.st.locked(func() { c.st.stats.Rederived += len(remaining) })
			c.met.rederived.Add(int64(len(remaining)))
		}
		err := c.runAttempt(ctx, remote, id, attempt, remaining)
		if err == nil {
			c.st.locked(func() { c.st.recoverLocked(id) })
			return nil
		}
		var connErr *ConnectError
		if remote && !fatalKind(err) && errors.As(err, &connErr) {
			// The fleet produced no link at all: no worker ran, nothing
			// was shipped, nothing needs re-running. Degrade this
			// shard to local spawns without consuming a restart.
			c.st.locked(func() { c.st.stats.Degraded++ })
			c.met.degraded.Inc()
			c.rec.Instant("shard-degrade",
				trace.Attr{Key: "shard", Val: int64(id)},
				trace.Attr{Key: "endpoints", Val: int64(connErr.Endpoints)})
			remote = false
			attempt--
			continue
		}
		c.st.noteFailure(id, remaining)
		var wexit *WorkerExitError
		if errors.As(err, &wexit) {
			c.st.locked(func() { c.st.stats.Kills++ })
			c.met.kills.Inc()
			c.rec.Instant("shard-kill",
				trace.Attr{Key: "shard", Val: int64(id)},
				trace.Attr{Key: "attempt", Val: int64(attempt)})
		}
		if fatalKind(err) {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return joinerr.Wrap("shard", "supervise", cerr)
		}
		if attempt > MaxRestarts {
			c.st.locked(func() { c.st.stats.Absorbed++ })
			c.met.absorbed.Inc()
			c.rec.Instant("shard-absorb", trace.Attr{Key: "shard", Val: int64(id)})
			left := c.st.unsealed(parts)
			c.st.locked(func() { c.st.stats.Rederived += len(left) })
			c.met.rederived.Add(int64(len(left)))
			if aerr := c.absorb(id, left); aerr != nil {
				return aerr
			}
			c.st.locked(func() { c.st.recoverLocked(id) })
			return nil
		}
		c.st.locked(func() { c.st.stats.Restarts++ })
		c.met.restarts.With(shardLabel(id)).Inc()
		c.rec.Instant("shard-retry",
			trace.Attr{Key: "shard", Val: int64(id)},
			trace.Attr{Key: "attempt", Val: int64(attempt)})
		if serr := restartBackoff.Sleep(fmt.Sprintf("shard-%d", id), attempt, c.chk.Now); serr != nil {
			return joinerr.Wrap("shard", "backoff", serr)
		}
	}
}

// fatalKind reports whether a shard failure must propagate instead of
// being retried: cooperative aborts are the caller's signal, not a fault
// domain's.
func fatalKind(err error) bool {
	switch joinerr.KindOf(err) {
	case joinerr.KindCanceled, joinerr.KindDeadlineExceeded:
		return true
	default:
		return false
	}
}

// workerEvent is one decoded frame (or the stream's end) from a worker.
type workerEvent struct {
	t      FrameType
	part   int
	pairs  []geom.Pair
	count  int64
	report *WorkerReport
	fail   error
	err    error // protocol/read error; nil with t==0 never happens
}

// runAttempt executes one worker attempt for shard id over parts, on a
// worker leased from the pool (remote) or spawned locally. A nil return
// means the worker completed cleanly and all its partitions sealed.
func (c *coordinator) runAttempt(ctx context.Context, remote bool, id, attempt int, parts []int) (retErr error) {
	sp := c.root.Child("shard-attempt")
	defer sp.End()
	sp.SetAttr("shard", int64(id))
	sp.SetAttr("attempt", int64(attempt))
	sp.AddRecords(int64(len(parts)))

	tmpDir := filepath.Join(c.man.root, fmt.Sprintf("shard-%d-a%d", id, attempt))
	c.man.add(tmpDir)
	defer c.man.sweep(tmpDir)

	spec := c.cfg.jobSpec(c.gs, id, attempt, parts, tmpDir)

	var (
		link Link
		err  error
	)
	if remote {
		link, err = leaseLink(ctx, c.pool)
	} else {
		link, err = spawnLink(c.cfg.WorkerCmd, c.cfg.WorkerEnv)
	}
	if err != nil {
		return err
	}
	// The verdict reaches the link's owner through Finish: a pool returns
	// the endpoint of a clean attempt and penalizes a failed one.
	defer func() { link.Finish(retErr != nil) }()
	if remote {
		c.st.locked(func() { c.st.stats.RemoteLeases++ })
	} else {
		c.st.locked(func() { c.st.stats.Spawns++ })
		c.met.spawns.Inc()
	}

	// Input shipper: job spec, partition chunks, go. A worker dying
	// mid-ship surfaces as a write error here and as EOF on the event
	// stream; the event loop owns the verdict.
	shipDone := make(chan struct{})
	go func() {
		defer close(shipDone)
		defer link.CloseSend()
		_ = c.shipInput(link.Send(), spec)
	}()

	// Frame pump: decode on the reading goroutine (payload buffers are
	// reused), deliver decoded events.
	events := make(chan workerEvent, 64)
	go func() {
		defer close(events)
		fr := link.Recv()
		for {
			t, payload, rerr := fr.Next()
			if rerr != nil {
				if rerr != io.EOF {
					events <- workerEvent{err: joinerr.WrapAs("shard", "frame", joinerr.KindShard, rerr)}
				}
				return
			}
			ev := workerEvent{t: t}
			switch t {
			case FrameBeat:
			case FramePairs:
				ev.part, ev.pairs, ev.err = decodePairs(payload)
			case FrameSeal:
				ev.part, ev.count, ev.err = decodeSeal(payload)
			case FrameDone:
				r := &WorkerReport{}
				ev.err = unmarshalJSON(payload, r)
				ev.report = r
			case FrameFail:
				var f workerFailure
				if derr := unmarshalJSON(payload, &f); derr != nil {
					ev.err = derr
				} else {
					ev.fail = f.toError()
				}
			default:
				ev.err = protoErrf("unexpected frame type %d from worker", t)
			}
			if ev.err != nil {
				ev.err = joinerr.WrapAs("shard", "frame", joinerr.KindShard, ev.err)
			}
			events <- ev
		}
	}()

	allowed := make(map[int]bool, len(parts))
	for _, p := range parts {
		allowed[p] = true
	}

	kill := link.Kill
	// Stall supervision: every frame stamps lastBeat, and a watchdog
	// ticker both publishes the age of that stamp as the shard's
	// heartbeat gauge and kills the worker once the age crosses the
	// stall timeout. One clock serves observability and enforcement, so
	// the gauge a scrape sees is exactly the quantity the supervisor
	// acts on. Detection lags a true stall by at most one tick.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	watchdog := time.NewTicker(min(stallTimeout/4, time.Second))
	defer watchdog.Stop()
	beatAge := c.met.beatAge.With(shardLabel(id))
	defer beatAge.Set(0) // no attempt in flight → age reads 0

	var (
		report   *WorkerReport
		failErr  error // structured fail frame
		loopErr  error // protocol violation or supervision verdict
		killedBy string
	)
	for events != nil {
		select {
		case ev, ok := <-events:
			if !ok {
				events = nil
				continue
			}
			// Any frame is proof of life.
			lastBeat.Store(time.Now().UnixNano())
			if loopErr != nil || killedBy != "" {
				continue // draining after a verdict
			}
			switch {
			case ev.err != nil:
				loopErr = ev.err
				kill()
			case ev.fail != nil:
				failErr = ev.fail
			case ev.t == FramePairs:
				if perr := c.st.addPairs(ev.part, allowed, ev.pairs); perr != nil {
					loopErr = joinerr.WrapAs("shard", "merge", joinerr.KindShard, perr)
					kill()
				}
			case ev.t == FrameSeal:
				if perr := c.st.seal(ev.part, id, allowed, ev.count); perr != nil {
					loopErr = joinerr.WrapAs("shard", "merge", joinerr.KindShard, perr)
					kill()
				}
			case ev.t == FrameDone:
				report = ev.report
			}
		case <-watchdog.C:
			age := time.Duration(time.Now().UnixNano() - lastBeat.Load())
			beatAge.Set(age.Seconds())
			if age >= stallTimeout && loopErr == nil && killedBy == "" {
				killedBy = fmt.Sprintf("stalled: no frame for %v", age.Round(time.Millisecond))
				kill()
			}
		case <-ctx.Done():
			loopErr = joinerr.Wrap("shard", "supervise", ctx.Err())
			kill()
		}
	}
	<-shipDone
	waitErr := link.Wait()

	switch {
	case loopErr != nil:
		if fatalKind(loopErr) {
			return loopErr
		}
		// A protocol violation — torn frame, checksum mismatch, stream
		// cut mid-frame, out-of-order frame — is the wire-level face of
		// a dead or corrupted worker. Round-trip it through
		// WorkerExitError so a mid-frame disconnect carries the same
		// joinerr.Kind, the same kill accounting and the same retry
		// policy as a worker process exit.
		var perr *ProtocolError
		if errors.As(loopErr, &perr) {
			return joinerr.WrapAs("shard", "supervise", joinerr.KindShard,
				c.exitError(link, id, attempt, waitErr, loopErr))
		}
		return loopErr
	case failErr != nil:
		return failErr
	case killedBy != "":
		return joinerr.WrapAs("shard", "supervise", joinerr.KindShard,
			c.exitError(link, id, attempt, waitErr, errors.New(killedBy)))
	case report != nil && waitErr == nil:
		if missing := len(c.st.unsealed(parts)); missing > 0 {
			return joinerr.WrapAs("shard", "merge", joinerr.KindShard,
				protoErrf("worker finished with %d partitions unsealed", missing))
		}
		c.applyReport(report)
		return nil
	default:
		cause := errors.New("worker exited before its done frame")
		if s := bytes.TrimSpace(link.StderrTail()); len(s) > 0 {
			if len(s) > 512 {
				s = s[:512]
			}
			cause = fmt.Errorf("worker exited before its done frame; stderr: %s", s)
		}
		return joinerr.WrapAs("shard", "supervise", joinerr.KindShard,
			c.exitError(link, id, attempt, waitErr, cause))
	}
}

// exitError builds the WorkerExitError carrying the link's terminal
// observation: the process exit status for a pipe link, the endpoint
// address for a network link.
func (c *coordinator) exitError(link Link, id, attempt int, waitErr, cause error) error {
	we := &WorkerExitError{Shard: id, Attempt: attempt, Endpoint: link.Endpoint(), ExitCode: -1, Err: cause}
	var ee *exec.ExitError
	if errors.As(waitErr, &ee) {
		we.ExitCode = ee.ExitCode()
		if ws, ok := ee.Sys().(interface {
			Signaled() bool
			Signal() os.Signal
		}); ok && ws.Signaled() {
			we.Signal = ws.Signal().String()
		}
	} else if waitErr == nil && we.Endpoint == "" {
		we.ExitCode = 0
	}
	return we
}

// shipInput writes the job conversation to one worker.
func (c *coordinator) shipInput(fw *FrameWriter, spec *JobSpec) error {
	payload, err := marshalJSON(spec)
	if err != nil {
		return err
	}
	if err := fw.Write(FrameJob, payload); err != nil {
		return err
	}
	var scratch []byte
	ship := func(part int, side byte, ks []geom.KPE) error {
		for off := 0; ; off += partChunkRecords {
			end := off + partChunkRecords
			if end > len(ks) {
				end = len(ks)
			}
			last := end == len(ks)
			if off == 0 || off < end {
				scratch = encodePartChunk(scratch, part, side, last, ks[off:end])
				if err := fw.Write(FramePart, scratch); err != nil {
					return err
				}
			}
			if last {
				return nil
			}
		}
	}
	for _, part := range spec.Parts {
		if err := ship(part, 'R', c.rsl[part]); err != nil {
			return err
		}
		if err := ship(part, 'S', c.ssl[part]); err != nil {
			return err
		}
	}
	return fw.Write(FrameGo, nil)
}

// applyReport folds a clean worker's accounting into the aggregates.
func (c *coordinator) applyReport(r *WorkerReport) {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	c.st.ioAgg.Add(r.IO)
	c.st.cpuAgg += time.Duration(r.CPUNanos)
	c.st.stats.WorkerLiveFiles += r.LiveFiles
}

// absorb runs the remaining partitions of a given-up shard in the
// coordinator process, through the same PairExec a worker would use —
// graceful degradation, not a different algorithm.
func (c *coordinator) absorb(id int, parts []int) error {
	sp := c.root.Child("shard-absorb-run")
	defer sp.End()
	sp.SetAttr("shard", int64(id))
	sp.AddRecords(int64(len(parts)))
	if len(parts) == 0 {
		return nil
	}
	disk := diskio.NewDisk(c.cfg.PageSize, c.cfg.PT, c.cfg.Transfer)
	pcfg := c.cfg.pbsmConfig(disk)
	pcfg.Cancel = c.chk
	ex, err := pbsm.NewPairExec(pcfg, c.gs)
	if err != nil {
		return err
	}
	start := time.Now()
	var buf []geom.Pair
	for _, part := range parts {
		buf = buf[:0]
		if rerr := ex.RunPair(part, c.rsl[part], c.ssl[part], func(p geom.Pair) {
			buf = append(buf, p)
		}); rerr != nil {
			return rerr
		}
		c.st.mu.Lock()
		c.st.bufs[part] = append([]geom.Pair(nil), buf...)
		c.st.sealLocked(part, id)
		c.st.mu.Unlock()
	}
	// Sweep before counting: WorkerLiveFiles reports what outlives the
	// sweep. An error return above abandons the private disk unswept —
	// nothing reads it again.
	ex.Close()
	c.st.mu.Lock()
	c.st.ioAgg.Add(disk.Stats())
	c.st.cpuAgg += time.Since(start)
	c.st.stats.WorkerLiveFiles += disk.NumFiles()
	c.st.mu.Unlock()
	return nil
}
