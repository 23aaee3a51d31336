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

	cases := []struct {
		name string
		cfg  core.Config
		want string
	}{
		{"pbsm-rpm", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupRPM},
			"partition=0/694/0/1359/15239/0 repartition=0/0/0/0/0/0 join=360/0/1359/0/8559/0 dup=0/0/0/0/0/0 first=15571 total=360/694/1359/1359/23798/0 results=61929"},
		{"pbsm-sort", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupSort},
			"partition=0/694/0/1359/15239/0 repartition=0/0/0/0/0/0 join=360/17/1359/66/8965/0 dup=32/15/123/57/1120/0 first=24609 total=392/726/1482/1482/25324/0 results=61929"},
		{"pbsm-tlsp", core.Config{Method: core.PBSM, PBSMDup: pbsm.DupTLSP},
			"partition=0/691/0/1351/15171/0 repartition=262/279/1023/1041/12884/0 join=486/0/1781/0/11501/0 dup=0/0/0/0/0/0 first=15336 total=748/970/2804/2392/39556/0 results=61929"},
		{"s3j-original", core.Config{Method: core.S3J, S3JMode: s3j.ModeOriginal},
			"partition=0/407/0/1578/9718/0 sort=206/198/797/789/9666/0 join=399/0/1570/0/9550/0 first=19696 total=605/605/2367/2367/28934/0 results=61929"},
		{"s3j-replicate", core.Config{Method: core.S3J, S3JMode: s3j.ModeReplicate},
			"partition=0/819/0/3178/19558/0 sort=819/790/3178/3149/38507/0 join=790/0/3149/0/18949/0 first=58161 total=1609/1609/6327/6327/77014/0 results=61929"},
		{"sssj", core.Config{Method: core.SSSJ},
			"sort=680/994/2680/3937/40097/0 sweep=327/0/1308/0/7848/0 first=40145 total=1007/994/3988/3937/47945/0 results=61929"},
		{"shj", core.Config{Method: core.SHJ},
			"build=0/658/0/658/13818/0 probe=0/947/0/947/19887/0 join=426/0/1605/0/10125/0  total=426/1605/1605/1605/43830/0 results=61929"},
	}
	for _, c := range cases {
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
			if got != c.want {
				t.Errorf("phase I/O moved:\n got  %s\n want %s", got, c.want)
			}
		})
	}
}

// TestPBSMStatsPinned pins PBSM's sweep and duplicate counters and its
// emission sequence for every duplicate method × internal algorithm on J1,
// at 5 % memory (partition pairs, each striped as loaded) and at 4× the
// input (P = 1, the stripes as scheduler units), at one worker and at four.
// The lines are counts and an order-dependent hash of the delivered pairs,
// so they hold on any machine; a change to the in-memory kernel that moves
// one has changed what PBSM tests, suppresses or emits, or in which order.
func TestPBSMStatsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("24 joins of J1")
	}
	R, S := NewSuite(1, 0, 1).Inputs(J1)
	cases := []struct {
		frac float64
		dup  pbsm.DupMethod
		alg  sweep.Kind
		want string
	}{
		{0.05, pbsm.DupRPM, sweep.ListKind, "tests=3183695 touches=3447943 raw=62364 skipped=0 reftests=0 results=61929 seq=0x8acb65371d36786c"},
		{0.05, pbsm.DupRPM, sweep.TrieKind, "tests=229499 touches=3609303 raw=62364 skipped=0 reftests=0 results=61929 seq=0xbb5c17b3142b7f14"},
		{0.05, pbsm.DupSort, sweep.ListKind, "tests=3183695 touches=3447943 raw=62364 skipped=0 reftests=0 results=61929 seq=0xe0b5e79e98d6e72c"},
		{0.05, pbsm.DupSort, sweep.TrieKind, "tests=229499 touches=3609303 raw=62364 skipped=0 reftests=0 results=61929 seq=0xe0b5e79e98d6e72c"},
		{0.05, pbsm.DupTLSP, sweep.ListKind, "tests=5175998 touches=5513545 raw=62573 skipped=272 reftests=15701 results=61929 seq=0x20ca6618757b44c8"},
		{0.05, pbsm.DupTLSP, sweep.TrieKind, "tests=242336 touches=4109067 raw=62573 skipped=272 reftests=15701 results=61929 seq=0xc95c9788564f0560"},
		{4, pbsm.DupRPM, sweep.ListKind, "tests=452123 touches=732789 raw=61929 skipped=0 reftests=0 results=61929 seq=0x3fc321a04400a220"},
		{4, pbsm.DupRPM, sweep.TrieKind, "tests=147286 touches=7075642 raw=61929 skipped=0 reftests=0 results=61929 seq=0x7fb4b969af5c52a8"},
		{4, pbsm.DupSort, sweep.ListKind, "tests=452123 touches=732789 raw=61929 skipped=0 reftests=0 results=61929 seq=0xe0b5e79e98d6e72c"},
		{4, pbsm.DupSort, sweep.TrieKind, "tests=147286 touches=7075642 raw=61929 skipped=0 reftests=0 results=61929 seq=0xe0b5e79e98d6e72c"},
		{4, pbsm.DupTLSP, sweep.ListKind, "tests=452123 touches=732789 raw=61929 skipped=0 reftests=0 results=61929 seq=0x3fc321a04400a220"},
		{4, pbsm.DupTLSP, sweep.TrieKind, "tests=147286 touches=7075642 raw=61929 skipped=0 reftests=0 results=61929 seq=0x7fb4b969af5c52a8"},
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
				got := fmt.Sprintf("tests=%d touches=%d raw=%d skipped=%d reftests=%d results=%d seq=%#x",
					st.Tests, st.Touches, st.RawResults, st.TLSPSkipped, st.TLSPRefTests, st.Results, h.Sum64())
				if got != c.want {
					t.Errorf("PBSM's counters or emission sequence moved:\n got  %s\n want %s", got, c.want)
				}
			})
		}
	}
}
