// Package shj implements the Spatial Hash Join of Lo & Ravishankar
// [LR 96], the partition-based competitor the paper's related work
// contrasts with PBSM: where PBSM replicates *both* relations across a
// fixed grid, the spatial hash join samples the build relation R to seed
// data-driven bucket extents, assigns every R rectangle to exactly ONE
// bucket (growing that bucket's extent), and replicates only the probe
// relation S into every bucket whose extent its rectangle intersects.
//
// Because each R rectangle lives in exactly one bucket, a result pair
// (r, s) can only be produced in r's bucket — the response set is
// duplicate-free without any reference-point test or sort, at the price
// of bucket extents that overlap and a probe-side replication that grows
// with them. Experiments in [KS 97] found it comparable to PBSM.
package shj

import (
	"fmt"
	"math"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/joinerr"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/phase"
	"spatialjoin/internal/recfile"
	"spatialjoin/internal/sched"
	"spatialjoin/internal/stripe"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
)

// Phase indexes the per-phase statistics.
type Phase int

// The three SHJ phases.
const (
	PhaseBuild          Phase = iota // sample seeds, partition R
	PhaseProbePartition              // replicate S into overlapping buckets
	PhaseJoin                        // join bucket pairs in memory
	numPhases
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseBuild:
		return "build"
	case PhaseProbePartition:
		return "probe-partition"
	case PhaseJoin:
		return "join"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Config controls a spatial hash join.
type Config struct {
	// Disk is the simulated device for the bucket files. Required.
	Disk *diskio.Disk
	// Memory is the byte budget: bucket pairs are sized to fit. Required.
	Memory int64
	// Algorithm is the in-memory join for bucket pairs; default list
	// sweep.
	Algorithm sweep.Kind
	// BufPages caps every file stream's buffer at this many pages. Values
	// < 1 let each stream take its share of Memory: the bucket writers
	// split it, and a bucket load reads with what the bucket leaves of it.
	BufPages int
	// Trace is the parent span phase spans nest under; nil disables
	// instrumentation.
	Trace *trace.Span
	// Cancel is the join's cancellation checkpoint; nil disables
	// cancellation.
	Cancel *govern.Check
	// Parallel joins this many bucket pairs concurrently (values < 2 keep
	// the join phase sequential) on the pair kernel's unit driver; results
	// are released in bucket order, so the emitted sequence is identical
	// to a sequential run's. Each extra worker holds one bucket pair
	// beyond Memory.
	Parallel int
	// Metrics, when non-nil, publishes live counters (replication
	// copies, orphans, overflows, buckets completed) and feeds the
	// per-pool scheduler series.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives record-weighted bucket
	// completions for the percent-complete/ETA estimator.
	Progress *metrics.Progress
}

// Stats reports what a spatial hash join did.
type Stats struct {
	Buckets   int
	Results   int64
	CopiesS   int64 // probe-side records written (≥ |S| due to replication)
	Orphans   int64 // S rectangles overlapping no bucket extent (cannot join)
	Tests     int64
	Touches   int64 // sweep status node touches (see sweep.Algorithm)
	Overflows int   // bucket pairs exceeding the memory budget (joined anyway)

	PhaseIO  [numPhases]diskio.Stats
	PhaseCPU [numPhases]time.Duration
}

// TotalIO sums the per-phase I/O statistics.
func (s *Stats) TotalIO() diskio.Stats { return phase.TotalIO(s.PhaseIO[:]) }

// TotalCPU sums the per-phase CPU times.
func (s *Stats) TotalCPU() time.Duration { return phase.TotalCPU(s.PhaseCPU[:]) }

// ReplicationRateS returns probe copies / |S|.
func (s *Stats) ReplicationRateS(ns int) float64 {
	if ns == 0 {
		return 0
	}
	return float64(s.CopiesS) / float64(ns)
}

// bucket is one hash bucket: a data-driven extent plus its two files.
type bucket struct {
	extent geom.Rect
	seeded bool
	nR     int
	n      int64 // records of both sides, once the probe side is written
	fR, fS *diskio.File
	wR, wS *recfile.KPEWriter
}

// Join computes the spatial intersection join of R (build side) and S
// (probe side), delivering each result pair exactly once to emit.
func Join(R, S []geom.KPE, cfg Config, emit func(geom.Pair)) (Stats, error) {
	if cfg.Disk == nil {
		return Stats{}, joinerr.Wrap("shj", "config", fmt.Errorf("Config.Disk is required"))
	}
	if cfg.Memory <= 0 {
		return Stats{}, joinerr.Wrap("shj", "config", fmt.Errorf("Config.Memory must be positive, got %d", cfg.Memory))
	}
	var st Stats
	if len(R) == 0 || len(S) == 0 {
		return st, nil
	}

	// One sweep covers every exit path, so no bucket file outlives the
	// join — success, failure or cancellation alike.
	rg := cfg.Disk.NewRegistry()
	defer rg.Sweep()

	// Bucket count: PBSM's formula (1) at the default tuning factor sizes
	// bucket pairs for the memory budget, assuming S distributes like R.
	n := iocost.PartCount(int64(len(R)+len(S)), cfg.Memory, 0)
	st.Buckets = n
	dev := iocost.DeviceOf(cfg.Disk, cfg.BufPages)
	led := phase.New(cfg.Disk, cfg.Trace, st.PhaseCPU[:], st.PhaseIO[:], nil, nil)

	// Build phase: seed bucket extents from a systematic sample of R
	// (every len(R)/n-th rectangle, spreading seeds across the data's own
	// distribution), then assign each R rectangle to the bucket whose
	// extent needs the least enlargement.
	pt := led.Begin(int(PhaseBuild), PhaseBuild.String())
	pt.Span.AddRecords(int64(len(R)))
	pt.Span.SetAttr("buckets", int64(n))
	buckets := seedBuckets(R, n)
	buf := dev.BufFor(cfg.Memory, 2*n)
	for _, b := range buckets {
		b.fR, b.fS = rg.Create(), rg.Create()
		b.wR = recfile.NewKPEWriter(b.fR, buf)
		b.wS = recfile.NewKPEWriter(b.fS, buf)
	}
	var err error
	chk := cfg.Cancel.Stride()
	for i := range R {
		if err = chk.Point(); err != nil {
			break
		}
		b := chooseBucket(buckets, R[i].Rect)
		b.extent = b.extent.Union(R[i].Rect)
		b.nR++
		if err = b.wR.Write(R[i]); err != nil {
			break
		}
	}
	if err == nil {
		for _, b := range buckets {
			if err = b.wR.Flush(); err != nil {
				break
			}
		}
	}
	pt.End()
	if err != nil {
		return st, joinerr.Wrap("shj", PhaseBuild.String(), err)
	}

	// Probe partition phase: replicate each S rectangle into every bucket
	// whose (now final) extent it intersects. Rectangles overlapping no
	// extent cannot join any R rectangle and are dropped (counted).
	pt = led.Begin(int(PhaseProbePartition), PhaseProbePartition.String())
	pt.Span.AddRecords(int64(len(S)))
	chk = cfg.Cancel.Stride()
	for i := range S {
		if err = chk.Point(); err != nil {
			break
		}
		hit := false
		for _, b := range buckets {
			if b.nR > 0 && b.extent.Intersects(S[i].Rect) {
				if err = b.wS.Write(S[i]); err != nil {
					break
				}
				st.CopiesS++
				hit = true
			}
		}
		if err != nil {
			break
		}
		if !hit {
			st.Orphans++
		}
	}
	if err == nil {
		for _, b := range buckets {
			if err = b.wS.Flush(); err != nil {
				break
			}
		}
	}
	pt.Span.SetAttr("copies", st.CopiesS)
	pt.Span.SetAttr("orphans", st.Orphans)
	pt.End()
	if err != nil {
		return st, joinerr.Wrap("shj", PhaseProbePartition.String(), err)
	}

	// Join phase: a serial pre-scan classifies the buckets — skipping (and
	// tear-verifying) the empty ones, counting overflows, weighing the
	// rest — and the joinable pairs are the ordered units of the pair
	// kernel, which releases results in bucket order at any worker count.
	pt = led.Begin(int(PhaseJoin), PhaseJoin.String())
	var units []*bucket
	var total int64
	bucketFill := cfg.Metrics.Histogram(metBucketFill)
	for _, b := range buckets {
		// A bucket pair is an expensive unit, so poll immediately:
		// cancellation latency is bounded by one pair, not 256.
		if err = cfg.Cancel.Now(); err != nil {
			break
		}
		nS := recfile.NumKPEs(b.fS)
		b.n = int64(b.nR) + nS
		bucketFill.Observe(float64(b.n))
		if b.nR == 0 || nS == 0 {
			// nR is tracked in memory, but nS derives from the file
			// length: a torn write can shrink the bucket's S file below
			// one frame header and masquerade as empty, so verify
			// before skipping. An empty R bucket received no S copies
			// and can contribute no pairs regardless.
			if b.nR > 0 && nS == 0 {
				if err = recfile.VerifyEmptyKPEs(b.fS, dev.Unit()); err != nil {
					break
				}
			}
			continue
		}
		if b.n*geom.KPESize > cfg.Memory {
			st.Overflows++
		}
		units = append(units, b)
		total += b.n
	}
	// The joinable bucket pairs, record-weighted, are the planned cost.
	cfg.Progress.SetTotal(float64(total))
	pt.Span.AddRecords(total)
	ex := stripe.NewExec(cfg.Algorithm, cfg.Memory, sched.Options{Workers: cfg.Parallel, Cancel: cfg.Cancel, Metrics: cfg.Metrics})
	if err == nil {
		bucketsDone := cfg.Metrics.Counter(metBucketsDone)
		err = ex.Run(len(units), "bucket-worker", pt.Span, func(p geom.Pair) {
			st.Results++
			emit(p)
		}, func(sl *stripe.Slot, emit func([]geom.Pair), i int) error {
			if err := joinBucket(sl, emit, units[i], cfg.Cancel, dev.LoadBuf(cfg.Memory, units[i].n*geom.KPESize), pt.Span); err != nil {
				return err
			}
			bucketsDone.Inc()
			cfg.Progress.Add(float64(units[i].n))
			return nil
		})
		st.Tests, st.Touches = ex.Counts()
	}
	pt.End()
	if err != nil {
		return st, joinerr.Wrap("shj", PhaseJoin.String(), err)
	}
	publishMetrics(cfg.Metrics, &st, ex.Algorithm())
	return st, nil
}

// joinBucket loads bucket b into the slot and joins it under a span of
// its own, striped over its extent's y-range, which the probe copies may
// reach past. Every R rectangle exists once, so no candidate needs a
// duplicate test.
func joinBucket(sl *stripe.Slot, emit func([]geom.Pair), b *bucket, cancel *govern.Check, bufPages int, parent *trace.Span) error {
	sp := parent.Child("bucket")
	defer sp.End()
	sp.AddRecords(b.n)
	var err error
	if sl.LoadR, err = recfile.ReadAllKPEs(sl.LoadR, b.fR, bufPages); err != nil {
		return err
	}
	if sl.LoadS, err = recfile.ReadAllKPEs(sl.LoadS, b.fS, bufPages); err != nil {
		return err
	}
	return sl.JoinLoaded(emit, stripe.Over(b.extent.YL, b.extent.YH), nil, cancel, sp)
}

// seedBuckets returns n file-less buckets with extents seeded from a
// systematic sample of R; with fewer than n rectangles the tail stays
// unseeded.
func seedBuckets(R []geom.KPE, n int) []*bucket {
	buckets := make([]*bucket, n)
	stride := len(R) / n
	if stride < 1 {
		stride = 1
	}
	for i := range buckets {
		b := &bucket{}
		if seedIdx := i * stride; seedIdx < len(R) {
			b.extent = R[seedIdx].Rect
			b.seeded = true
		}
		buckets[i] = b
	}
	return buckets
}

// chooseBucket returns the bucket whose extent needs the least
// enlargement to take r, preferring smaller extents on ties and unseeded
// buckets last.
func chooseBucket(buckets []*bucket, r geom.Rect) *bucket {
	var best *bucket
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, b := range buckets {
		if !b.seeded {
			continue
		}
		enl := b.extent.Union(r).Area() - b.extent.Area()
		area := b.extent.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = b, enl, area
		}
	}
	if best == nil {
		// No seeded bucket (degenerate small input): seed the first.
		best = buckets[0]
		best.extent = r
		best.seeded = true
	}
	return best
}
