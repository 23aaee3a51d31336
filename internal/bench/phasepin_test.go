package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pbsm"
	"spatialjoin/internal/s3j"
	"spatialjoin/internal/sweep"
)

// methodArms is every method and duplicate arm, on the default sizing.
var methodArms = []struct {
	name string
	cfg  core.Config
}{
	{"pbsm-rpm", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupRPM}},
	{"pbsm-sort", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupSort}},
	{"s3j-original", core.Config{Method: core.S3J, S3JMode: s3j.ModeOriginal}},
	{"s3j-replicate", core.Config{Method: core.S3J, S3JMode: s3j.ModeReplicate}},
	{"sssj", core.Config{Method: core.SSSJ}},
	{"shj", core.Config{Method: core.SHJ}},
}

// TestPhaseIOPinned pins what every method charges to each of its phases,
// the first-result I/O clock and Result.IO for a one-worker join of J1 at
// 5 % memory. Every number is a count of the deterministic cost model, so
// the golden lines hold on any machine; a change that moves one has moved
// a sizing rule (a buffer, a fan-in, a partition count) or the point where
// a phase begins or ends. At one worker every activation charges its own
// phase; FirstResultIO is timing-dependent at more.
func TestPhaseIOPinned(t *testing.T) {
	R, S := NewSuite(1, 0, 1).Inputs(J1)
	mem := MemFrac(R, S, 0.05)

	io := func(s diskio.Stats) string {
		return fmt.Sprintf("%d/%d/%d/%d/%g/%d", s.ReadRequests, s.WriteRequests, s.PagesRead, s.PagesWritten, s.CostUnits, s.Retries)
	}
	phases := func(names []string, ios []diskio.Stats) string {
		var b strings.Builder
		for i := range ios {
			fmt.Fprintf(&b, "%s=%s ", names[i], io(ios[i]))
		}
		return b.String()
	}

	want := map[string]string{
		"pbsm-rpm":      "partition=0/694/0/1359/15239/0 repartition=0/0/0/0/0/0 join=123/0/1359/0/3819/0 dup=0/0/0/0/0/0 first=15371 total=123/694/1359/1359/19058/0 results=61929",
		"pbsm-sort":     "partition=0/694/0/1359/15239/0 repartition=0/0/0/0/0/0 join=123/2/1359/66/3925/0 dup=5/1/123/57/300/0 first=19345 total=128/697/1482/1482/19464/0 results=61929",
		"s3j-original":  "partition=0/48/0/1578/2538/0 sort=206/198/797/789/9666/0 join=323/0/1570/0/8030/0 first=12529 total=529/246/2367/2367/20234/0 results=61929",
		"s3j-replicate": "partition=0/96/0/3178/5098/0 sort=730/696/3178/3149/34847/0 join=199/0/3149/0/7129/0 first=40089 total=929/792/6327/6327/47074/0 results=61929",
		"sssj":          "sort=320/629/2651/3937/25568/0 sweep=327/0/1308/0/7848/0 first=25616 total=647/629/3959/3937/33416/0 results=61929",
		"shj":           "build=0/658/0/658/13818/0 probe=0/947/0/947/19887/0 join=359/0/1605/0/8785/0  total=359/1605/1605/1605/42490/0 results=61929",
	}
	for _, c := range methodArms {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Memory, cfg.Parallel = mem, 1
			res, err := core.Join(R, S, cfg, func(geom.Pair) {})
			if err != nil {
				t.Fatal(err)
			}
			var got string
			switch {
			case res.PBSMStats != nil:
				st := res.PBSMStats
				got = phases([]string{"partition", "repartition", "join", "dup"}, st.PhaseIO[:]) +
					fmt.Sprintf("first=%g", st.FirstResultIO)
			case res.S3JStats != nil:
				st := res.S3JStats
				got = phases([]string{"partition", "sort", "join"}, st.PhaseIO[:]) +
					fmt.Sprintf("first=%g", st.FirstResultIO)
			case res.SSSJStats != nil:
				st := res.SSSJStats
				got = phases([]string{"sort", "sweep"}, st.PhaseIO[:]) +
					fmt.Sprintf("first=%g", st.FirstResultIO)
			case res.SHJStats != nil:
				got = phases([]string{"build", "probe", "join"}, res.SHJStats.PhaseIO[:])
			}
			got += fmt.Sprintf(" total=%s results=%d", io(res.IO), res.Results)
			if got != want[c.name] {
				t.Errorf("phase I/O moved:\n got  %s\n want %s", got, want[c.name])
			}
		})
	}
}

// TestUnsetBufferNeverCostsMore: every stream takes at least the buffer
// the paper's fixed 4 pages give it, so on J1 at 1 %, 5 % and 25 % memory
// every method and duplicate arm charges no more cost units with BufPages
// unset than with BufPages 4, and delivers the same pairs in the same
// order.
func TestUnsetBufferNeverCostsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("36 joins of J1")
	}
	R, S := NewSuite(1, 0, 1).Inputs(J1)
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		for _, c := range methodArms {
			t.Run(fmt.Sprintf("mem=%g/%s", frac, c.name), func(t *testing.T) {
				run := func(bufPages int) (float64, uint64) {
					cfg := c.cfg
					cfg.Memory, cfg.Parallel, cfg.BufPages = MemFrac(R, S, frac), 1, bufPages
					h := fnv.New64a()
					var b [16]byte
					res, err := core.Join(R, S, cfg, func(p geom.Pair) {
						binary.LittleEndian.PutUint64(b[:8], p.R)
						binary.LittleEndian.PutUint64(b[8:], p.S)
						h.Write(b[:])
					})
					if err != nil {
						t.Fatal(err)
					}
					return res.IO.CostUnits, h.Sum64()
				}
				units, seq := run(0)
				paperUnits, paperSeq := run(4)
				if units > paperUnits || seq != paperSeq {
					t.Errorf("unset buffer: %g units, sequence %#x; BufPages 4: %g units, sequence %#x", units, seq, paperUnits, paperSeq)
				}
			})
		}
	}
}

// TestPBSMStatsPinned pins PBSM's sweep and duplicate counters and its
// emission sequence for every duplicate method × internal algorithm on J1,
// at 5 % memory (partition pairs, each cut into the join's stripe rows as
// loaded) and at 4× the input (P = 1, the stripes as scheduler units), at
// one worker and at four.
// The lines are counts and an order-dependent hash of the delivered pairs,
// so they hold on any machine; a change to the in-memory kernel that moves
// one has changed what PBSM tests, suppresses or emits, or in which order.
func TestPBSMStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("16 joins of J1")
	}
	R, S := NewSuite(1, 0, 1).Inputs(J1)
	cases := []struct {
		frac float64
		dup  pbsm.DupMethod
		alg  sweep.Kind
		want string
	}{
		{0.05, pbsm.DupRPM, sweep.ListKind, "tests=445578 touches=720804 raw=62364 results=61929 seq=0xeca32186639bd3ac"},
		{0.05, pbsm.DupRPM, sweep.TrieKind, "tests=143434 touches=2917400 raw=62364 results=61929 seq=0xea342a281907a14"},
		{0.05, pbsm.DupSort, sweep.ListKind, "tests=445578 touches=720804 raw=62364 results=61929 seq=0xe0b5e79e98d6e72c"},
		{0.05, pbsm.DupSort, sweep.TrieKind, "tests=143434 touches=2917400 raw=62364 results=61929 seq=0xe0b5e79e98d6e72c"},
		{4, pbsm.DupRPM, sweep.ListKind, "tests=452123 touches=732789 raw=61929 results=61929 seq=0x3fc321a04400a220"},
		{4, pbsm.DupRPM, sweep.TrieKind, "tests=147286 touches=7075642 raw=61929 results=61929 seq=0x7fb4b969af5c52a8"},
		{4, pbsm.DupSort, sweep.ListKind, "tests=452123 touches=732789 raw=61929 results=61929 seq=0xe0b5e79e98d6e72c"},
		{4, pbsm.DupSort, sweep.TrieKind, "tests=147286 touches=7075642 raw=61929 results=61929 seq=0xe0b5e79e98d6e72c"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("mem=%g/%v/%s/parallel=%d", c.frac, c.dup, c.alg, workers), func(t *testing.T) {
				h := fnv.New64a()
				var b [16]byte
				res, err := core.Join(R, S, core.Config{
					Method: core.PBSM, PBSMDup: c.dup, Algorithm: c.alg,
					Memory: MemFrac(R, S, c.frac), Parallel: workers,
				}, func(p geom.Pair) {
					binary.LittleEndian.PutUint64(b[:8], p.R)
					binary.LittleEndian.PutUint64(b[8:], p.S)
					h.Write(b[:])
				})
				if err != nil {
					t.Fatal(err)
				}
				st := res.PBSMStats
				got := fmt.Sprintf("tests=%d touches=%d raw=%d results=%d seq=%#x",
					st.Tests, st.Touches, st.RawResults, st.Results, h.Sum64())
				if got != c.want {
					t.Errorf("PBSM's counters or emission sequence moved:\n got  %s\n want %s", got, c.want)
				}
			})
		}
	}
}
