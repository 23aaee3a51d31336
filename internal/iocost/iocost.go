// Package iocost is the rulebook: every rule that sizes a join from the
// memory budget M and the §2 cost model (a request of n contiguous pages
// costs PT + n) is written here once — the default buffer, the buffer a
// stream may hold when several are open, the fan-in of a merge, formula
// (1) with its tuning factor — next to the prices built from them
// (PassCost, PairCost). The join methods and extsort size themselves with
// these functions; the planner, the shard coordinator's assignment and
// PBSM's progress estimator predict with the same ones, so a prediction
// cannot disagree with the run about a rule. Costs are in the simulator's
// deterministic units and compare directly against diskio.Stats.CostUnits.
// The package imports only geom and diskio.
package iocost

import (
	"math"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// DefaultBufPages is the sequential I/O buffer of one file stream, in
// pages, where a Config leaves BufPages unset.
const DefaultBufPages = 4

// DefaultTuneFactor is the t of §3.2.3 where a Config leaves it unset.
const DefaultTuneFactor = 1.25

// BufPages resolves a Config's BufPages field: values < 1 select the
// default.
func BufPages(n int) int {
	if n < 1 {
		return DefaultBufPages
	}
	return n
}

// Device describes the simulated disk parameters.
type Device struct {
	PageSize int     // bytes per page
	PT       float64 // positioning-to-transfer ratio
	BufPages int     // sequential buffer size in pages
}

// DefaultDevice matches the diskio defaults.
var DefaultDevice = Device{PageSize: diskio.DefaultPageSize, PT: diskio.DefaultPT, BufPages: DefaultBufPages}

// DeviceOf describes disk with the buffer a Config asks for (BufPages
// resolves it).
func DeviceOf(disk *diskio.Disk, bufPages int) Device {
	return Device{PageSize: disk.PageSize(), PT: disk.PT(), BufPages: BufPages(bufPages)}
}

// Pages converts a byte volume to pages (fractional; the model works in
// expectations).
func (d Device) Pages(bytes float64) float64 {
	return bytes / float64(d.PageSize)
}

// PassCost returns the cost units of streaming `pages` pages through a
// buffer of b pages: the transfers plus one positioning per request.
func (d Device) PassCost(pages float64, b int) float64 {
	if pages <= 0 {
		return 0
	}
	if b < 1 {
		b = 1
	}
	return pages + d.PT*math.Ceil(pages/float64(b))
}

// BufFor sizes each stream's buffer when streams files are open at once,
// so that the buffers together stay within the memory budget — at a small
// M with many partitions, each output buffer shrinks to a single page and
// every flush pays the positioning cost, which is exactly how a real
// partitioning join degrades at tiny memory.
func (d Device) BufFor(memory int64, streams int) int {
	per := int(memory / int64(max(streams, 1)) / int64(d.PageSize))
	return min(max(per, 1), d.BufPages)
}

// FanIn is the number of runs one merge reads at once: what the memory
// budget holds of sequential buffers — one per input run plus one for the
// output — and at least two.
func (d Device) FanIn(memory int64) int {
	return max(int(memory/int64(d.BufPages*d.PageSize))-1, 2)
}

// PartCount is formula (1) with the tuning factor (§3.2.3): the number of
// partitions whose pairs fit memory if recs records spread evenly, at
// least one. The multiplier t > 1 avoids pairs that just barely miss the
// budget; values ≤ 1 select DefaultTuneFactor.
func PartCount(recs, memory int64, t float64) int {
	if t <= 1 {
		t = DefaultTuneFactor
	}
	return max(int(math.Ceil(t*float64(recs*geom.KPESize)/float64(memory))), 1)
}

// PairCost predicts the I/O cost units of executing one PBSM top-level
// partition pair holding nr + ns record copies under the given memory
// budget: the pair's data is written once in the partition phase and
// read once in the join phase, plus one extra write+read of the larger
// side per expected repartition level when the pair exceeds the budget.
// The shard coordinator ranks partitions by this cost to balance shard
// assignments (largest-cost-first bin packing), and the PBSM progress
// estimator weights partition pairs by it; like the method predictors
// it is a planning estimate, not an accounting of the run.
func PairCost(nr, ns int64, memory int64, d Device) float64 {
	bytes := float64(nr+ns) * float64(geom.KPESize)
	pg := d.Pages(bytes)
	cost := d.PassCost(pg, d.BufPages) * 2
	if memory <= 0 {
		return cost
	}
	largerPg := d.Pages(float64(max(nr, ns)) * float64(geom.KPESize))
	for over := bytes; over > float64(memory); over /= 2 {
		// Each repartition level streams the larger side out and back in.
		cost += d.PassCost(largerPg, d.BufPages) * 2
	}
	return cost
}
