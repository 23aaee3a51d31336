// Package iocost is the rulebook: every rule that sizes a join from the
// memory budget M and the §2 cost model (a request of n contiguous pages
// costs PT + n) is written here once — the request unit, the buffer a
// stream may hold when several are open, the buffer a pair load reads
// with, the fan-in of a merge, formula (1) with its tuning factor — next
// to the prices built from them (PassCost, PairCost). Because the model
// rewards large requests, a stream takes its whole share of M unless a
// Config sets BufPages, which caps every stream at that many pages the
// way the paper's fixed buffer does. The join methods and extsort size
// themselves with these functions; the planner, the shard coordinator's
// assignment and PBSM's progress estimator predict with the same ones, so
// a prediction cannot disagree with the run about a rule. Costs are in
// the simulator's deterministic units and compare directly against
// diskio.Stats.CostUnits. The package imports only geom and diskio.
package iocost

import (
	"math"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/geom"
)

// DefaultBufPages is the request unit where a Config leaves BufPages
// unset: the buffer of the streams that are not sized from M (run and
// chunk writes, heals, empty-file checks), the floor of a pair load and
// the buffer FanIn counts in.
const DefaultBufPages = 4

// DefaultTuneFactor is the t of §3.2.3 where a Config leaves it unset.
const DefaultTuneFactor = 1.25

// BufPages resolves a Config's BufPages field to the request unit:
// values < 1 select the default.
func BufPages(n int) int {
	if n < 1 {
		return DefaultBufPages
	}
	return n
}

// Device describes the simulated disk parameters and the buffer cap.
type Device struct {
	PageSize int     // bytes per page
	PT       float64 // positioning-to-transfer ratio
	// BufPages caps every stream's buffer, in pages; 0 lets each stream
	// take its share of M (BufFor, LoadBuf).
	BufPages int
}

// DefaultDevice matches the diskio defaults, uncapped.
var DefaultDevice = Device{PageSize: diskio.DefaultPageSize, PT: diskio.DefaultPT}

// DeviceOf describes disk with the cap a Config's BufPages asks for:
// values < 1 leave the streams uncapped.
func DeviceOf(disk *diskio.Disk, bufPages int) Device {
	return Device{PageSize: disk.PageSize(), PT: disk.PT(), BufPages: max(bufPages, 0)}
}

// Unit is the request unit: the cap when one is set, DefaultBufPages
// otherwise.
func (d Device) Unit() int { return BufPages(d.BufPages) }

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

// BufFor sizes each stream's buffer when streams files are open at once:
// an equal share of the memory budget, so that the buffers together stay
// within it, capped at BufPages when the device sets one. At a small M
// with many partitions each output buffer shrinks to a single page and
// every flush pays the positioning cost, which is exactly how a real
// partitioning join degrades at tiny memory; at a large M few streams
// make few, large requests.
func (d Device) BufFor(memory int64, streams int) int {
	per := max(int(memory/int64(max(streams, 1))/int64(d.PageSize)), 1)
	if d.BufPages > 0 {
		per = min(per, d.BufPages)
	}
	return per
}

// LoadBuf is the buffer a pair or bucket load reads with: what the budget
// leaves beside the pairBytes the loaded records take, and never less
// than the request unit. A pair that fills M therefore overshoots it by
// one unit.
func (d Device) LoadBuf(memory, pairBytes int64) int {
	return max(d.BufFor(memory-pairBytes, 1), d.Unit())
}

// FanIn is the number of runs one merge reads at once: what the memory
// budget holds of unit-sized buffers — one per input run plus one for
// the output — and at least two. A merge then reads and writes with its
// share, BufFor(memory, runs+1), which is at least the unit.
func (d Device) FanIn(memory int64) int {
	return max(int(memory/int64(d.Unit()*d.PageSize))-1, 2)
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
// it is a planning estimate, not an accounting of the run, and it prices
// every pass at the request unit rather than at the buffer the run takes:
// it only ranks pairs, and a ranking in unit requests keeps the shard
// assignment and the progress weights independent of the budget's
// sizing rules.
func PairCost(nr, ns int64, memory int64, d Device) float64 {
	bytes := float64(nr+ns) * float64(geom.KPESize)
	pg := d.Pages(bytes)
	cost := d.PassCost(pg, d.Unit()) * 2
	if memory <= 0 {
		return cost
	}
	largerPg := d.Pages(float64(max(nr, ns)) * float64(geom.KPESize))
	for over := bytes; over > float64(memory); over /= 2 {
		// Each repartition level streams the larger side out and back in.
		cost += d.PassCost(largerPg, d.Unit()) * 2
	}
	return cost
}
