package iocost

import (
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// TestRules pins every rule: the request unit, the per-stream share of M
// (capped only where a Config sets BufPages), the chunk's window, the
// pair load's buffer, FanIn in unit buffers, and formula (1).
func TestRules(t *testing.T) {
	d := DefaultDevice // 8 KiB pages, PT 20, uncapped
	capped := Device{PageSize: d.PageSize, PT: d.PT, BufPages: 4}
	const page = 8192

	for _, c := range []struct{ in, want int }{{-3, 4}, {0, 4}, {1, 1}, {4, 4}, {64, 64}} {
		if got := BufPages(c.in); got != c.want {
			t.Errorf("BufPages(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if d.Unit() != DefaultBufPages || (Device{BufPages: 9}).Unit() != 9 {
		t.Errorf("Unit: default %d, capped at 9 %d", d.Unit(), (Device{BufPages: 9}).Unit())
	}

	for _, c := range []struct {
		memory       int64
		streams      int
		want, capped int
	}{
		{4 << 10, 50, 1, 1},              // tiny M: one page per stream, never zero
		{-page, 3, 1, 1},                 // nothing left: still one page
		{50 * page, 50, 1, 1},            // exactly one page each
		{100 * page, 50, 2, 2},           // the budget's share, below the cap
		{100 * page, 49, 2, 2},           // integer division, rounded down
		{1 << 30, 50, 2621, 4},           // the whole share, unless capped
		{16 * page, 0, 16, 4},            // streams < 1 count as one
		{16 * page, -7, 16, 4},           //
		{3*page + page/2, 1, 3, 3},       // a partial page does not count
		{250 * page, 25, 10, 4},          // pbsm_ext's partition writers
		{250 * page, 100, 2, 2},          // below the cap, the cap changes nothing
		{1<<30 + page - 1, 1, 131072, 4}, //
	} {
		if got := d.BufFor(c.memory, c.streams); got != c.want {
			t.Errorf("BufFor(%d, %d) = %d, want %d", c.memory, c.streams, got, c.want)
		}
		if got := capped.BufFor(c.memory, c.streams); got != c.capped {
			t.Errorf("capped BufFor(%d, %d) = %d, want %d", c.memory, c.streams, got, c.capped)
		}
	}
	if got := (Device{PageSize: 256, PT: 5, BufPages: 16}).BufFor(1<<20, 2); got != 16 {
		t.Errorf("BufFor cap follows the device's BufPages: got %d, want 16", got)
	}

	for _, c := range []struct {
		memory, pair int64
		want, capped int
	}{
		{250 * page, 0, 250, 4},         // an empty pair leaves all of M
		{250 * page, 40 * page, 210, 4}, // what the pair leaves
		{250 * page, 247 * page, 4, 4},  // never below the unit
		{250 * page, 250 * page, 4, 4},  // a full pair overshoots by one unit
		{250 * page, 300 * page, 4, 4},  // an overflowing pair too
	} {
		if got := d.LoadBuf(c.memory, c.pair); got != c.want {
			t.Errorf("LoadBuf(%d, %d) = %d, want %d", c.memory, c.pair, got, c.want)
		}
		if got := capped.LoadBuf(c.memory, c.pair); got != c.capped {
			t.Errorf("capped LoadBuf(%d, %d) = %d, want %d", c.memory, c.pair, got, c.capped)
		}
	}
	if got := (Device{PageSize: page, BufPages: 2}).LoadBuf(250*page, 0); got != 2 {
		t.Errorf("a cap below the default unit caps the load too: got %d, want 2", got)
	}

	for _, c := range []struct {
		memory       int64
		want, capped int
	}{
		{250 * page, 250, 4},          // the chunk's own stream
		{3*page + page/2, 4, 4},       // never below the unit
		{-page, 4, 4},                 //
		{1<<30 + page - 1, 131072, 4}, // a partial page does not count
		{5*page + page/2, 5, 4},       // just above the unit
	} {
		if got := d.ChunkBuf(c.memory); got != c.want {
			t.Errorf("ChunkBuf(%d) = %d, want %d", c.memory, got, c.want)
		}
		if got := capped.ChunkBuf(c.memory); got != c.capped {
			t.Errorf("capped ChunkBuf(%d) = %d, want %d", c.memory, got, c.capped)
		}
	}

	for _, c := range []struct {
		memory int64
		want   int
	}{
		{0, 2},                        // floor: a merge reads at least two runs
		{2 * 4 * page, 2},             // 2 buffers − 1 for the output = 1, floored
		{3 * 4 * page, 2},             //
		{4 * 4 * page, 3},             // one buffer per input run plus the output's
		{100*4*page + 4*page - 1, 99}, // a partial buffer does not count
	} {
		// FanIn counts in unit buffers whether or not the streams are
		// capped, so run counts and merge passes do not depend on it.
		if got, gotCapped := d.FanIn(c.memory), capped.FanIn(c.memory); got != c.want || gotCapped != c.want {
			t.Errorf("FanIn(%d) = %d, capped %d, want %d", c.memory, got, gotCapped, c.want)
		}
	}
	if got := (Device{PageSize: page, BufPages: 1}).FanIn(100 * page); got != 99 {
		t.Errorf("FanIn counts in the capped unit: got %d, want 99", got)
	}

	for _, c := range []struct {
		recs, memory int64
		t            float64
		want         int
	}{
		{0, 1 << 20, 0, 1},                     // P ≥ 1
		{100, 1 << 30, 0, 1},                   // everything fits
		{1000, 1000 * geom.KPESize, 1, 2},      // t ≤ 1 → 1.25: ceil(1.25)
		{1000, 1000 * geom.KPESize, 0.5, 2},    //
		{1000, 1000 * geom.KPESize, -1, 2},     //
		{4000, 1000 * geom.KPESize, 0, 5},      // 4 · 1.25, exact
		{4000, 1000 * geom.KPESize, 1.5, 6},    // an explicit t is taken
		{4001, 1000 * geom.KPESize, 1.5, 7},    // the ceiling
		{40000, 2000 * geom.KPESize, 1.25, 25}, // 5 % memory: P = 25
	} {
		if got := PartCount(c.recs, c.memory, c.t); got != c.want {
			t.Errorf("PartCount(%d, %d, %g) = %d, want %d", c.recs, c.memory, c.t, got, c.want)
		}
	}
}

// TestSharesStayInBudget: at a small budget, at J1's 5 % (533 885 bytes)
// and at 1 GiB, the buffers the rules hand out fit M — s streams of
// BufFor(M, s) whenever M holds a page for each, a merge of k ≤ FanIn
// runs plus its output, and a loaded pair plus its load buffer, which may
// pass M by at most one unit.
func TestSharesStayInBudget(t *testing.T) {
	d := DefaultDevice
	page := int64(d.PageSize)
	for _, m := range []int64{64 * page, 533885, 1 << 30} {
		pages := m / page
		for s := int64(1); s <= pages; s = s*3/2 + 1 {
			if b := d.BufFor(m, int(s)); b < 1 || s*int64(b) > pages {
				t.Errorf("M = %d: %d streams of %d pages exceed %d pages", m, s, b, pages)
			}
		}
		for k := 1; k <= d.FanIn(m); k++ {
			if b := d.BufFor(m, k+1); b < d.Unit() || int64(k+1)*int64(b) > pages {
				t.Errorf("M = %d: a merge of %d runs takes %d pages per stream (unit %d), %d pages in all",
					m, k, b, d.Unit(), int64(k+1)*int64(b))
			}
		}
		for _, pair := range []int64{0, 1, m / 3, m - page, m - 1, m} {
			if b := d.LoadBuf(m, pair); b < d.Unit() || pair+int64(b)*page > m+int64(d.Unit())*page {
				t.Errorf("M = %d: a pair of %d bytes loads with %d pages", m, pair, b)
			}
		}
	}
}

// TestDeviceOf: the device is the disk's own parameters plus the cap a
// Config asks for, and the default device is the default disk's, uncapped.
func TestDeviceOf(t *testing.T) {
	if got := DeviceOf(diskio.NewDisk(0, 0, 0), 0); got != DefaultDevice {
		t.Errorf("DeviceOf(default disk, 0) = %+v, want DefaultDevice %+v", got, DefaultDevice)
	}
	if got := DeviceOf(diskio.NewDisk(0, 0, 0), -3); got != DefaultDevice {
		t.Errorf("DeviceOf(default disk, -3) = %+v, want DefaultDevice %+v", got, DefaultDevice)
	}
	got := DeviceOf(diskio.NewDisk(512, 7, time.Microsecond), 9)
	if want := (Device{PageSize: 512, PT: 7, BufPages: 9}); got != want {
		t.Errorf("DeviceOf = %+v, want %+v", got, want)
	}
}

func TestPassCost(t *testing.T) {
	d := DefaultDevice
	for _, c := range []struct {
		pages float64
		b     int
		want  float64
	}{
		{0, 4, 0},
		{-1, 4, 0},
		{8, 4, 8 + 2*20},     // two requests
		{9, 4, 9 + 3*20},     // a partial buffer is a request
		{9, 0, 9 + 9*20},     // b < 1 counts as one page
		{2.5, 1, 2.5 + 3*20}, // fractional volumes round the requests up
	} {
		if got := d.PassCost(c.pages, c.b); got != c.want {
			t.Errorf("PassCost(%g, %d) = %g, want %g", c.pages, c.b, got, c.want)
		}
	}
}

func TestPairCost(t *testing.T) {
	d := DefaultDevice
	mem := int64(1 << 20)
	small := PairCost(100, 100, mem, d)
	big := PairCost(10000, 10000, mem, d)
	if small <= 0 || big <= small {
		t.Fatalf("PairCost not monotone in size: small=%v big=%v", small, big)
	}
	// A pair over budget pays repartition passes on top of the two base
	// passes over the same data.
	fits := PairCost(10000, 10000, 64<<20, d)
	over := PairCost(10000, 10000, 128<<10, d)
	if over <= fits {
		t.Fatalf("over-budget pair (%v) not costlier than fitting pair (%v)", over, fits)
	}
	// Determinism: same inputs, same estimate.
	if PairCost(1234, 567, mem, d) != PairCost(1234, 567, mem, d) {
		t.Fatal("PairCost is not deterministic")
	}
	if c := PairCost(0, 0, mem, d); c != 0 {
		t.Fatalf("empty pair cost = %v, want 0", c)
	}
}
