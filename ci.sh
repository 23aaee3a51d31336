#!/bin/sh
# ci.sh — the checks every change must pass, in the order a failure is
# cheapest to diagnose. Run from the repository root. Exits non-zero on
# the first failure.
#
#   ./ci.sh          full gate (lint, vet, build, race tests, smokes)
#   ./ci.sh -short   skip the race run and the smokes
set -eu

short=${1:-}

# size prints the measure every simplification PR quotes: Go lines outside
# benchmark/ (the measuring stick, frozen in most PRs) and the lint
# fixtures, code and tests apart, and the package count. It is the last
# step of both gates, so the numbers in CHANGES.md are the script's.
size() {
    go_lines() {
        find . -name '*.go' -not -path './benchmark/*' -not -path './internal/lint/testdata/*' "$@" -print0 |
            xargs -0 cat | wc -l
    }
    echo "== size: $(go_lines -not -name '*_test.go') non-test / $(go_lines -name '*_test.go') test Go lines, $(go list ./... | wc -l) packages =="
}

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" "$unformatted" >&2
    exit 1
fi

echo "== sjlint ./... =="
# The project's own analyzer suite (internal/lint) type-checks the tree
# and enforces the cross-cutting contracts: joinerr wrapping at API and
# shard process boundaries, trace spans and phase activations ended by
# "defer x.End()" on the line after they open, govern checkpoints in
# record loops, registry-managed temp files (the type-accurate successor
# of the old grep lints), exhaustive Kind switches, %w over %v for error
# operands, and metric names. DESIGN.md §10 keeps each analyzer's
# evidence; concurrency contracts are the race step's.
go run ./cmd/sjlint ./...

# The default suite includes copylocks, which the mutex-guarded
# Recorder/Span rely on: do not narrow it.
echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

if [ "$short" = "-short" ]; then
    echo "== go test -short ./... =="
    go test -short -timeout 10m ./...
    size
    echo "ci.sh: short gate passed"
    exit 0
fi

echo "== go test -race -count=1 ./... =="
# One run of everything. -count=1: internal/shard and the kill sweeps of
# internal/chaos spawn real worker processes and SIGKILL them at seeded
# points, and process-level chaos must not be served from the test cache.
# -timeout turns a cancellation hang (a checkpoint regression) into a
# failure with stacks instead of a stuck CI job. -race: the pair kernel of
# internal/stripe, which PBSM and SHJ run on, hands concurrent scheduler
# units slot-owned buffers reused from unit to unit and PBSM folds its
# counters from them (core.TestLattice: every method x variant x
# algorithm x budget on seam, border and random geometry at one and three
# workers and through the shard fleet over pipes and TCP, against nested
# loops and the one-worker emission order; TestStripe* in internal/stripe
# and internal/pbsm: SHJ bucket bands, recursion-cap leaves and PairExec,
# slot trimming, cancellation at every kind of checkpoint); extsort forms
# runs and s3j's partitioners write scan-order runs from concurrent units,
# and extsort.Merge, the one k-way merge behind the forced merges, the
# S3J scan, DupSort and the SSSJ sweep, breaks ties by run ordinal
# (stability, run files identical across worker counts, the pinned
# emission sequence, torn runs, cancellation swept over partitioners,
# forced merges and scan). From two workers on, S3J's scan runs that
# merge as a stage of its own, which hands batches of records to the
# cell-join stage on the caller's goroutine: s3j.TestSortAndScanCancellation
# at 4 workers, which cancels the scan at points spread over the whole
# merge and wants no pair twice, no file and no goroutine left, is that
# pipeline's concurrency contract (with core.TestS3JScanPanicReleasesMergeStage
# for a panicking consumer and the torn-run tests for a failing merge).
# This step owns the concurrency contracts, the "guarded by mu"
# annotations and the lock order included: every annotated struct has a
# hammer here — internal/shard/pool_race_test.go (Pool, Lease),
# internal/metrics/race_test.go and TestRegistryConcurrencyHammer
# (Registry, vecs), sched.TestCollectorConcurrent,
# trace.TestRecorderConcurrentUse, sweep.TestSortByXLConcurrent (the
# radix's scratch free list),
# shard.TestJoinStateConcurrentShards (joinState: one goroutine per
# simulated shard adds frames and seals, and the merge must emit in
# partition order on every run) and the shard and chaos joins
# (manifest), whose goroutine-leak checks, with pbsm's and s3j's cancellation tests, also
# stand for every go statement's join or cancel path.
go test -race -count=1 -timeout 20m ./...

echo "== fuzz smoke (diskio extents against a flat byte-slice model) =="
# Random-sized writes, flushes and range reads (whole and in pieces), with
# torn-write and bit-flip seeds, on sizes that straddle extent seams and
# land exactly on them.
go test -run '^$' -fuzz FuzzFileExtents -fuzztime 10s ./internal/diskio/

echo "== fuzz smoke (the sweep's key sort, pdqsort below radixMin and radix from it, against its order and permutation properties) =="
# Arbitrary left edges with exact ties, near-ties inside one high half of
# the key, ±0 and subnormals, each sorted as given and tiled past
# radixMin: the output must hold every input record once, in
# (geom.OrderedKey(XL), input position) order.
go test -run '^$' -fuzz '^FuzzSortByXL$' -fuzztime 10s ./internal/sweep/

echo "== fuzz smoke (the one plane sweep, list and trie statuses, against nested loops) =="
# Arbitrary rectangles with shared and touching edges, ±0 and coordinates
# outside the unit square, through every status organization.
go test -run '^$' -fuzz '^FuzzPlaneSweep$' -fuzztime 10s ./internal/sweep/

echo "== fuzz smoke (S3J's size level against its defining inequality) =="
# Any finite rectangle, in the unit square or far outside it: the
# containment cell is the deepest that holds both corners, the size level
# is the largest k with both extents ≤ 2^-k, exactly, with no float
# slack, and replication covers both corners' cells within four cells.
go test -run '^$' -fuzz '^FuzzLevelAssignments$' -fuzztime 10s ./internal/sfc/

echo "== fuzz smoke (extsort's key-only run radix against the comparator path) =="
# Arbitrary keys with whole bytes zeroed, so that ties and skipped radix
# passes are common: a key-only run must be byte-identical to the run the
# comparator path writes, and hold the chunk stably sorted by key.
go test -run '^$' -fuzz '^FuzzWriteRunKeyOrder$' -fuzztime 10s ./internal/extsort/

echo "== fuzz smoke (extsort's typed merge heap against a stable sort by key, Less and run) =="
# Runs with heavy ties in Key and in Less, merged by Key alone and by Key
# with Less: Merge must yield every record once, with its run's index, in
# the order of a stable sort of the runs' records by key, then Less, then
# run ordinal.
go test -run '^$' -fuzz '^FuzzMergeOrder$' -fuzztime 10s ./internal/extsort/

echo "== metrics endpoint smoke (/metrics exposition + progress), overhead budgets =="
# A PBSM join scraped over metrics.Handler from inside its result stream:
# every response must parse as Prometheus text, the progress fraction
# must be monotone, take at least two values strictly between 0 and 1 and
# finish at exactly 1.0, and /metricsz must emit valid JSONL. The overhead budget table bounds what disabled tracing,
# cancellation and metrics cost a join (2 %, 2 %, 1 %); it runs here,
# without -race, because it skips itself under the detector, which
# multiplies the microbenchmarked primitives far more than the join.
go test -count=1 -run 'TestMetricsEndpointSmoke|TestOverheadBudget' .

echo "== repository benchmark smoke (pbsm_mem, traced pass) =="
# One small in-memory workload through the benchmark's traced pass: the
# benchmark's own oracle must accept every join and its gates
# (unattributed share, zero disk retries) must hold.
go run ./benchmark -workload pbsm_mem -scale 0.05 -seconds 0 -trace 1 | grep -q '"correct":true'

echo "== repository benchmark smoke (pbsm_ext, traced pass) =="
# The external path through the same oracle and gates. At scale 0.25 the
# top pairs hold about 8k records each, and the striped pair path cuts
# every one into the join's K = 82 stripe rows. Repartitioning does not
# run, and that is the contract: the planner packs the tiles of this
# skewed input so that every pair fits the budget, which the traced pass
# prints as zero repartitions and zero memory overflows. (The fallback itself is covered by the pbsm
# tests, which force it with a tile heavier than the budget.) The request
# counts are the sizing rules of internal/iocost at work, and they are
# deterministic: the pair loads read with what each pair leaves of the
# budget (LoadBuf: 142 reads, 342 at the fixed 4-page buffer), and the
# partition writers split it (BufFor: 666 writes; at this scale the share
# is below 4 pages, so no cap binds). A rule that slips back moves them.
# So is the sweep's candidate count: every loaded pair is cut into the
# stripe rows of the whole join (pbsm.GridSpec.Rows), 426 902 list tests
# (2 984 760 when each pair was cut by its own record count). A stripe
# rule that slips back moves it.
extsmoke=$(mktemp /tmp/sjbench-ext.XXXXXX.txt)
trap 'rm -f "$extsmoke"' EXIT
go run ./benchmark -workload pbsm_ext -scale 0.25 -seconds 0 -trace 1 | tee "$extsmoke" | grep -q '"correct":true'
grep -Eq '^ +pbsm\.repartitions +0 count' "$extsmoke"
grep -Eq '^ +pbsm\.memory_overflows +0 count' "$extsmoke"
grep -Eq '^ +diskio\.read_requests +142 count' "$extsmoke"
grep -Eq '^ +diskio\.write_requests +666 count' "$extsmoke"
grep -Eq '^ +pbsm\.sweep_tests +426902 count' "$extsmoke"

echo "== repository benchmark smoke (pbsm_dupsort, traced pass) =="
# The paper's baseline, PBSM with the original sort-based duplicate
# removal, through the same oracle and gates: the join phase writes its
# results as sorted, deduplicated runs and the dup phase merges them into
# the delivered result. No pair of this input outgrows the budget. Each
# run is written in the window of its chunk (iocost ChunkBuf), not in the
# 4-page unit: 369 write requests (403 when the run writes took the unit).
# A run write that slips back to the unit moves the count.
dupsmoke=$(mktemp /tmp/sjbench-dup.XXXXXX.txt)
trap 'rm -f "$extsmoke" "$dupsmoke"' EXIT
go run ./benchmark -workload pbsm_dupsort -scale 0.1 -seconds 0 -trace 1 | tee "$dupsmoke" | grep -q '"correct":true'
grep -Eq '^ +pbsm\.memory_overflows +0 count' "$dupsmoke"
grep -Eq '^ +diskio\.write_requests +369 count' "$dupsmoke"

echo "== repository benchmark smoke (s3j_ext, traced pass) =="
# S3J's external path through the same oracle and gates: the chunk index
# sort in the partitioners, the scan's extsort.Merge and the scan arena.
# At scale 0.25 the budget holds 24 cursors and the partitioners write 26
# runs, so one forced merge pass runs too (at full scale: 23 runs against
# 99 cursors, none). The partitioners write each run in the window of its
# chunk (iocost ChunkBuf): 272 write requests, partitioners and merge
# pass together (855 when the run writes took the 4-page unit). A run
# write that slips back to the unit moves the count.
s3jsmoke=$(mktemp /tmp/sjbench-s3j.XXXXXX.txt)
trap 'rm -f "$extsmoke" "$dupsmoke" "$s3jsmoke"' EXIT
go run ./benchmark -workload s3j_ext -scale 0.25 -seconds 0 -trace 1 | tee "$s3jsmoke" | grep -q '"correct":true'
grep -Eq '^ +diskio\.write_requests +272 count' "$s3jsmoke"

echo "== repository benchmark smoke (pbsm_shards2, traced pass) =="
# The one workload that crosses the process boundary: two spawned worker
# processes, the frame protocol both ways, the supervision loop and the
# ordered merge, through the same oracle and gates. A clean run spawns
# exactly one worker per shard, restarts none, and leaves no file on any
# worker's disk. Every pair of this input fits the budget, so the workers
# join each one from the records they received and never touch their
# disks at all.
shardsmoke=$(mktemp /tmp/sjbench-shards.XXXXXX.txt)
trap 'rm -f "$extsmoke" "$dupsmoke" "$s3jsmoke" "$shardsmoke"' EXIT
go run ./benchmark -workload pbsm_shards2 -scale 0.05 -seconds 0 -trace 1 | tee "$shardsmoke" | grep -q '"correct":true'
grep -Eq '^ +shard\.spawns +2 count' "$shardsmoke"
grep -Eq '^ +shard\.restarts +0 count' "$shardsmoke"
grep -Eq '^ +shard\.worker_live_files +0 count' "$shardsmoke"
grep -Eq '^ +diskio\.pages_written +0 count' "$shardsmoke"
grep -Eq '^ +diskio\.pages_read +0 count' "$shardsmoke"

size
echo "ci.sh: all checks passed"
