// Command sjoin runs a single spatial intersection join between two of
// the built-in datasets and prints the run statistics: result
// cardinality, per-phase I/O and CPU, replication and duplicate counts,
// and the simulated total runtime under the paper's cost model.
//
// Usage:
//
//	sjoin [-r la_rr] [-s la_st] [-rfile data.tsv] [-sfile data.tsv]
//	      [-n 20000] [-p 1] [-seed 1]
//	      [-method pbsm|s3j|sssj|shj] [-alg list|trie|nested] [-dup rpm|sort]
//	      [-mode replicate|original] [-mem 2.5] [-parallel 1] [-shards 1]
//	      [-plan] [-v] [-timeout 0] [-trace out.json] [-stats] [-pprof addr]
//	      [-progress] [-metrics-addr addr]
//
// -shards N (PBSM with RPM only) executes the join as N worker OS
// processes under the fault-tolerant coordinator of internal/shard; the
// result sequence is identical to -shards 1 at any N.
//
// -shard-endpoints host:port,... points -shards at resident workers
// over TCP (start them with sjworkerd); an unreachable fleet degrades to
// local worker processes, never a failed join.
//
// -timeout bounds the join's wall time; an overrun aborts with a clean
// deadline-exceeded error naming the phase, having swept all temp files.
//
// -mem is the memory budget in "paper megabytes" (20-byte KPEs), so
// -mem 2.5 reproduces the paper's standard LA-join budget.
//
// -stats prints the phase-tree summary of the instrumented run (wall
// time, I/O delta and records per span) followed by the join's counters
// and histograms, read from the metrics registry; -trace writes the same
// run as a Chrome trace_event file loadable in chrome://tracing or
// Perfetto and prints the same counts; -pprof serves net/http/pprof on
// the given address (e.g. localhost:6060) for live CPU/heap profiling.
//
// -progress prints a live percent-complete/ETA ticker to stderr, driven
// by the cost-model progress estimator; -metrics-addr serves the live
// metrics registry on the given address (":0" picks a free port, the
// bound address is printed to stderr): /metrics is Prometheus text
// exposition, /metricsz is self-describing JSONL.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/iocost"
	"spatialjoin/internal/metrics"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/plan"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/shard"
	"spatialjoin/internal/shj"
	"spatialjoin/internal/sssj"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/trace"
	"spatialjoin/internal/tsv"
)

// startProgressTicker prints the join's live percent-complete and ETA
// to stderr twice a second, reading the progress gauges the join
// publishes. The returned stop function ends the ticker and prints the
// final 100% line.
func startProgressTicker(reg *metrics.Registry) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	line := func() {
		snap := reg.Snapshot()
		frac := snap.Value(metrics.JoinProgressFraction)
		eta := snap.Value(metrics.JoinProgressETASeconds)
		fmt.Fprintf(os.Stderr, "\rsjoin: progress %5.1f%%  eta %6.1fs ", 100*frac, eta)
	}
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				line()
				fmt.Fprintln(os.Stderr)
				return
			case <-tick.C:
				line()
			}
		}
	}()
	return func() { close(stop); <-done }
}

func dataset(name string, seed int64, n int, p float64) ([]geom.KPE, error) {
	var ds datagen.Dataset
	switch name {
	case "la_rr":
		ds = datagen.LARR(seed, n)
	case "la_st":
		ds = datagen.LAST(seed+1, n)
	case "cal_st":
		ds = datagen.CALST(seed+2, n)
	case "uniform":
		return datagen.Uniform(seed+3, n, 0.01), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (have la_rr, la_st, cal_st, uniform)", name)
	}
	if p > 1 {
		return datagen.Scale(ds.KPEs, p), nil
	}
	return ds.KPEs, nil
}

func main() {
	// Worker mode must win before flag parsing: a shard coordinator
	// re-executes this binary with -shard-worker and speaks the frame
	// protocol on stdin/stdout; nothing else may touch those pipes.
	shard.ServeIfWorker()

	rName := flag.String("r", "la_rr", "left relation (la_rr, la_st, cal_st, uniform)")
	sName := flag.String("s", "la_st", "right relation")
	rFile := flag.String("rfile", "", "load left relation from a TSV file (id xl yl xh yh) instead of -r")
	sFile := flag.String("sfile", "", "load right relation from a TSV file instead of -s")
	n := flag.Int("n", 20000, "rectangles per relation")
	p := flag.Float64("p", 1, "edge scale factor, as in LA_RR(p)")
	seed := flag.Int64("seed", 1, "generator seed")
	method := flag.String("method", "pbsm", "join method: pbsm, s3j, sssj or shj")
	alg := flag.String("alg", "", "internal algorithm: list, trie or nested (default per method)")
	dup := flag.String("dup", "rpm", "PBSM duplicate removal: rpm or sort")
	mode := flag.String("mode", "replicate", "S3J mode: replicate or original")
	memMB := flag.Float64("mem", 2.5, "memory budget in paper MB (20-byte KPEs)")
	parallel := flag.Int("parallel", 1, "workers of the parallel phases of every method (0 = all processors, 1 = sequential)")
	shards := flag.Int("shards", 1, "worker OS processes (PBSM+RPM only; >1 re-executes this binary with -shard-worker per shard)")
	shardEndpoints := flag.String("shard-endpoints", "", "comma-separated resident worker addresses for -shards (host:port,...); unreachable fleets degrade to local worker processes")
	timeout := flag.Duration("timeout", 0, "abort the join after this wall time (0 = no deadline)")
	doPlan := flag.Bool("plan", false, "print the analytic cost ranking and pick the cheapest method")
	verbose := flag.Bool("v", false, "print each result pair")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of the run")
	stats := flag.Bool("stats", false, "print the phase-tree trace summary after the join")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	progress := flag.Bool("progress", false, "print a live progress/ETA ticker to stderr during the join")
	metricsAddr := flag.String("metrics-addr", "", "serve live metrics on this address (e.g. localhost:9090 or :0): /metrics Prometheus text, /metricsz JSONL")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "sjoin: %v\n", err)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		// The pprof server serves for the whole process lifetime and dies with it.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sjoin: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "sjoin: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	load := func(path, name string, seedOff int64) []geom.KPE {
		if path != "" {
			f, err := os.Open(path)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			ks, err := tsv.Read(f)
			if err != nil {
				fail(err)
			}
			return tsv.Normalize(ks)
		}
		ks, err := dataset(name, *seed+seedOff, *n, *p)
		if err != nil {
			fail(err)
		}
		return ks
	}
	R := load(*rFile, *rName, 0)
	S := load(*sFile, *sName, 100)
	rLabel, sLabel := *rName, *sName
	if *rFile != "" {
		rLabel = *rFile
	}
	if *sFile != "" {
		sLabel = *sFile
	}

	cfg := core.Config{
		Method:    core.Method(*method),
		Memory:    int64(*memMB * (1 << 20) * geom.KPESize / 20), // paper MB -> bytes of KPESize-byte KPEs
		Algorithm: sweep.Kind(*alg),
		Parallel:  *parallel,
		Shards:    *shards,
	}
	if *shardEndpoints != "" {
		for _, ep := range strings.Split(*shardEndpoints, ",") {
			if ep = strings.TrimSpace(ep); ep != "" {
				cfg.ShardEndpoints = append(cfg.ShardEndpoints, ep)
			}
		}
	}
	if *traceOut != "" || *stats {
		cfg.Trace = trace.New()
	}
	pd, err := pbsm.ParseDupMethod(*dup)
	if err != nil {
		fail(fmt.Errorf("-dup: %w", err))
	}
	cfg.PBSMDup = pd
	switch *mode {
	case "replicate":
		cfg.S3JMode = s3j.ModeReplicate
	case "original":
		cfg.S3JMode = s3j.ModeOriginal
	default:
		fail(fmt.Errorf("unknown -mode %q", *mode))
	}

	// Metrics, progress and the counts printed under -stats and -trace
	// share one process registry; the join publishes into it live, the
	// HTTP handler, the stderr ticker and the summary only read.
	var reg *metrics.Registry
	if *metricsAddr != "" || *progress || cfg.Trace != nil {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail(err)
		}
		// The metrics server serves for the whole process lifetime and dies with it.
		go func() {
			if serr := http.Serve(ln, metrics.Handler(reg)); serr != nil {
				fmt.Fprintf(os.Stderr, "sjoin: metrics server: %v\n", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "sjoin: metrics at http://%s/metrics\n", ln.Addr())
	}

	if *doPlan {
		w := plan.Workload{
			NR: len(R), NS: len(S),
			SampleR: plan.Sample(R, 1000, 1),
			SampleS: plan.Sample(S, 1000, 2),
			Memory:  cfg.Memory,
		}
		fmt.Println("plan      predicted I/O cost per method:")
		ranked := plan.Rank(w, iocost.DefaultDevice)
		for _, p := range ranked {
			fmt.Printf("  %-5s %10.0f units  (%.1f passes, %.2fx replication)\n",
				p.Method, p.IOUnits, p.Passes, p.Replication)
		}
		cfg.Method = ranked[0].Method
		fmt.Printf("          choosing %s\n", cfg.Method)
	}

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	var stopProgress func()
	if *progress {
		stopProgress = startProgressTicker(reg)
	}
	res, err := core.Join(R, S, cfg, func(pr geom.Pair) {
		if *verbose {
			fmt.Printf("%d\t%d\n", pr.R, pr.S)
		}
	})
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("join      %s ⋈ %s (%d x %d rectangles, p=%g)\n", rLabel, sLabel, len(R), len(S), *p)
	fmt.Printf("method    %s", res.Method)
	switch res.Method {
	case core.PBSM:
		fmt.Printf(" (dup=%s)", *dup)
	case core.S3J:
		fmt.Printf(" (mode=%s)", *mode)
	}
	fmt.Printf(", memory %.2f paper-MB\n", *memMB)
	fmt.Printf("results   %d\n", res.Results)
	fmt.Printf("I/O       %d reads, %d writes, %d pages in, %d pages out, %.0f cost units\n",
		res.IO.ReadRequests, res.IO.WriteRequests, res.IO.PagesRead, res.IO.PagesWritten, res.IO.CostUnits)
	fmt.Printf("time      cpu %.3fs + simulated I/O %.3fs = total %.3fs\n",
		res.CPU.Seconds(), res.IOTime.Seconds(), res.Total.Seconds())

	if st := res.PBSMStats; st != nil {
		fmt.Printf("pbsm      P=%d NT=%d, replication %.2fx, raw results %d (suppressed %d), repartitions %d, tests %d\n",
			st.P, st.NT, st.ReplicationRate(len(R), len(S)),
			st.RawResults, st.RawResults-st.Results, st.Repartitions, st.Tests)
		for ph := pbsm.PhasePartition; ph <= pbsm.PhaseDup; ph++ {
			fmt.Printf("  %-12s cpu %.3fs, io %.0f units\n",
				ph, st.PhaseCPU[ph].Seconds(), st.PhaseIO[ph].CostUnits)
		}
		fmt.Printf("  first result after %.3fs cpu, %.0f io units\n",
			st.FirstResultCPU.Seconds(), st.FirstResultIO)
	}
	if st := res.S3JStats; st != nil {
		fmt.Printf("s3j       replication %.2fx, raw results %d (suppressed %d), sort runs %d (+%d merge passes), tests %d, max resident %d B\n",
			st.ReplicationRate(len(R), len(S)), st.RawResults, st.RawResults-st.Results,
			st.SortRuns, st.MergePasses, st.Tests, st.MaxResident)
		for ph := s3j.PhasePartition; ph <= s3j.PhaseJoin; ph++ {
			fmt.Printf("  %-12s cpu %.3fs, io %.0f units\n",
				ph, st.PhaseCPU[ph].Seconds(), st.PhaseIO[ph].CostUnits)
		}
		fmt.Printf("  level records R: %v\n", st.LevelRecordsR)
		fmt.Printf("  level records S: %v\n", st.LevelRecordsS)
	}
	if st := res.SSSJStats; st != nil {
		fmt.Printf("sssj      sort runs %d (+%d merge passes), tests %d, sweep high-water %d rects\n",
			st.SortRuns, st.MergePasses, st.Tests, st.MaxResident)
		for ph := sssj.PhaseSort; ph <= sssj.PhaseSweep; ph++ {
			fmt.Printf("  %-12s cpu %.3fs, io %.0f units\n",
				ph, st.PhaseCPU[ph].Seconds(), st.PhaseIO[ph].CostUnits)
		}
		fmt.Printf("  first result after %.3fs cpu, %.0f io units\n",
			st.FirstResultCPU.Seconds(), st.FirstResultIO)
	}
	if st := res.SHJStats; st != nil {
		fmt.Printf("shj       %d buckets, probe replication %.2fx, orphans %d, tests %d\n",
			st.Buckets, st.ReplicationRateS(len(S)), st.Orphans, st.Tests)
		for ph := shj.PhaseBuild; ph <= shj.PhaseJoin; ph++ {
			fmt.Printf("  %-16s cpu %.3fs, io %.0f units\n",
				ph, st.PhaseCPU[ph].Seconds(), st.PhaseIO[ph].CostUnits)
		}
	}

	if *stats {
		fmt.Println()
		if err := cfg.Trace.WriteTree(os.Stdout); err != nil {
			fail(err)
		}
	}
	if cfg.Trace != nil {
		// Time is the recorder's, counts are the registry's: one join ran
		// in this process, so the snapshot is that join's delta.
		if err := metrics.WriteSummary(os.Stdout, reg.Snapshot()); err != nil {
			fail(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := cfg.Trace.WriteChromeTrace(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace     %s (chrome://tracing / Perfetto), coverage %.1f%%\n",
			*traceOut, 100*cfg.Trace.Coverage())
	}
}
