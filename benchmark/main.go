// Command benchmark is the repository's benchmark: five join workloads,
// each measured end to end with tracing off and, in a separate traced
// pass, layer by layer. BENCHMARK.json at the root of the repository
// declares its metrics and workloads; README.md in this directory says
// what each is for.
//
//	go run ./benchmark -workload pbsm_ext -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload pbsm_ext -seed 1 -trace 1
//	go run ./benchmark -aa
//
// Without -workload every workload runs in turn. The last line of the
// output of a workload is one JSON object with its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"spatialjoin/internal/shard"
)

func main() {
	if shardWorker() {
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// shardWorker turns the process into a shard worker when it was started
// as one. A sharded workload re-executes this binary as its worker
// processes; that is decided before flag parsing, as in sjoin and
// sjbench.
func shardWorker() bool {
	for _, arg := range os.Args[1:] {
		if arg == "-shard-worker" || arg == "--shard-worker" {
			if err := shard.WorkerMain(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: shard worker:", err)
				os.Exit(1)
			}
			return true
		}
	}
	return false
}

func run() error {
	var opt options
	name := flag.String("workload", "", "run this workload only (default: all)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long the timed joins of an end-to-end run go on")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced per-layer pass")
	flag.Float64Var(&opt.scale, "scale", 1, "multiply every input size (smoke tests only: numbers compare at scale 1)")
	aa := flag.Bool("aa", false, "run the end-to-end set twice and fail if the two disagree beyond the bounds")
	spansTo := flag.String("spans", "", "with -trace 1: write the benchmark's and the program's spans to this file as JSON lines")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	cleanup, err := scratchTemp()
	if err != nil {
		return err
	}
	defer cleanup()

	if *aa {
		return runAA(selected, opt)
	}
	for _, w := range selected {
		if *traceOn != 0 {
			t, err := runTraced(w, opt)
			if err != nil {
				return err
			}
			printHeader(w, opt, t.p.in, t.p.o.count)
			if err := printResult(perLayer, t.m, t.tally); err != nil {
				return err
			}
			if *spansTo != "" {
				if err := writeSpansFile(*spansTo, t); err != nil {
					return err
				}
			}
			continue
		}
		rep, err := runEndToEnd(w, opt)
		if err != nil {
			return err
		}
		printHeader(w, opt, rep.in, rep.results)
		fmt.Printf("   %d set-ups, n = %d timed joins, join wall min %.4f max %.4f s\n",
			setupReps, rep.timed, rep.wallRange[0], rep.wallRange[1])
		if err := printResult(endToEnd, rep.m, rep.tally); err != nil {
			return err
		}
	}
	return nil
}

// scratchTemp points the temporary directory of this process and of the
// shard workers it starts at a fresh directory under the working
// directory, so that a run writes nothing outside its checkout. The
// returned function removes it.
func scratchTemp() (func(), error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cwd, ".bench_tmp-")
	if err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, err
	}
	// Best effort: a directory left behind is ignored by git.
	return func() { _ = os.RemoveAll(dir) }, nil
}

func printHeader(w workload, opt options, in inputs, results int64) {
	fmt.Printf("== %s  seed=%d scale=%g  |R|=%d |S|=%d input_bytes=%d input_hash=%#016x results=%d\n",
		w.name, opt.seed, opt.scale, len(in.R), len(in.S), in.bytes, in.hash, results)
	fmt.Printf("   %s GOMAXPROCS=%d NumCPU=%d\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// printResult prints every metric by name with its unit, then the one
// JSON line the driver reads.
func printResult(decl []metric, m values, t tally) error {
	type measure struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{t.failed == 0, t.attempted, t.failed, map[string]measure{}}
	for _, d := range decl {
		fmt.Printf("   %-38s %16.6g %-6s (%s is better)\n", d.name, m[d.name], d.unit, d.better)
		out.Metrics[d.name] = measure{m[d.name], d.unit}
	}
	fmt.Printf("   %-38s %16.6g %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(t.failed)/float64(t.attempted), "share", t.failed, t.attempted)
	if t.failed > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", t.firstFailure)
	}
	// Only a NaN or an infinity can fail to encode: a cell divided by a
	// zero time or count.
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func writeSpansFile(path string, t *tracedRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAA runs the end-to-end set twice, workload by workload, and
// compares the two: timings and allocation within the bounds, the I/O
// count exactly, and no failed join on either side.
func runAA(selected []workload, opt options) error {
	bad := 0
	fmt.Printf("%-13s %-23s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range selected {
		var reps [2]*e2eReport
		for i := range reps {
			var err error
			if reps[i], err = runEndToEnd(w, opt); err != nil {
				return err
			}
		}
		a, b := reps[0], reps[1]
		for _, d := range endToEnd {
			diff := (b.m[d.name] - a.m[d.name]) / a.m[d.name]
			bound, verdict := d.bound, ""
			if d.name == "io_amplification" {
				bound = 0 // a count: the two runs must agree exactly
			}
			if math.Abs(diff) > bound {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-13s %-23s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				w.name, d.name, a.m[d.name], b.m[d.name], 100*diff, 100*bound, verdict)
		}
		failed, attempted := a.failed+b.failed, a.attempted+b.attempted
		verdict := ""
		if failed > 0 || a.in.hash != b.in.hash || a.results != b.results {
			verdict = "  EXCEEDS"
			bad++
		}
		fmt.Printf("%-13s %-23s %14d %14d %9s %6.0f%%%s\n", w.name, "failed (of "+fmt.Sprint(attempted)+")",
			a.failed, b.failed, "", 0.0, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("-aa: %d comparisons exceed their bound", bad)
	}
	fmt.Println("-aa: two runs of the same code agree within the bounds")
	return nil
}
