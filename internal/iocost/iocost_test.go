package iocost

import (
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// TestRules pins every rule to the value its per-package copies produced
// before they were folded in here (pbsm/s3j/shj bufPagesFor, the five
// bufPages defaults, extsort's FanIn, pbsm's partCount and shj's inline
// formula (1)).
func TestRules(t *testing.T) {
	d := DefaultDevice // 8 KiB pages, PT 20, 4 buffer pages
	const page = 8192

	for _, c := range []struct{ in, want int }{{-3, 4}, {0, 4}, {1, 1}, {4, 4}, {64, 64}} {
		if got := BufPages(c.in); got != c.want {
			t.Errorf("BufPages(%d) = %d, want %d", c.in, got, c.want)
		}
	}

	for _, c := range []struct {
		memory  int64
		streams int
		want    int
	}{
		{4 << 10, 50, 1},        // tiny M: one page per stream, never zero
		{50 * page, 50, 1},      // exactly one page each
		{100 * page, 50, 2},     // the budget's share, below the cap
		{100 * page, 49, 2},     // integer division, rounded down
		{1 << 30, 50, 4},        // capped at the device's buffer
		{16 * page, 0, 4},       // streams < 1 count as one
		{16 * page, -7, 4},      //
		{3*page + page/2, 1, 3}, // a partial page does not count
	} {
		if got := d.BufFor(c.memory, c.streams); got != c.want {
			t.Errorf("BufFor(%d, %d) = %d, want %d", c.memory, c.streams, got, c.want)
		}
	}
	if got := (Device{PageSize: 256, PT: 5, BufPages: 16}).BufFor(1<<20, 2); got != 16 {
		t.Errorf("BufFor cap follows the device's BufPages: got %d, want 16", got)
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
		if got := d.FanIn(c.memory); got != c.want {
			t.Errorf("FanIn(%d) = %d, want %d", c.memory, got, c.want)
		}
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

// TestDeviceOf: the device is the disk's own parameters plus the resolved
// buffer, and the default device is the default disk's.
func TestDeviceOf(t *testing.T) {
	if got := DeviceOf(diskio.NewDisk(0, 0, 0), 0); got != DefaultDevice {
		t.Errorf("DeviceOf(default disk, 0) = %+v, want DefaultDevice %+v", got, DefaultDevice)
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
