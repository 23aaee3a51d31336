package main

import (
	"math"
	"math/rand"
	"sort"

	"spatialjoin/internal/geom"
)

// pairHash mixes a result pair into 64 bits (splitmix64 finalizer over
// both ids). The benchmark sums these hashes, so the set hash does not
// depend on emission order.
func pairHash(p geom.Pair) uint64 {
	x := p.R*0x9e3779b97f4a7c15 ^ (p.S + 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampleSize is the number of R records whose complete result rows the
// oracle computes by brute force.
const sampleSize = 500

// oracle is the benchmark's own notion of the right answer. It imports
// no join package: the full result is summarized by a forward plane
// sweep written here, and sampleSize rows are computed by nested loops,
// so a sweep bug shared with the program cannot hide in both.
type oracle struct {
	count int64
	hash  uint64
	// inSample[id] marks the sampled R records; rows holds every pair
	// they take part in.
	inSample []bool
	rows     map[geom.Pair]struct{}
}

func newOracle(seed int64, R, S []geom.KPE) *oracle {
	o := &oracle{inSample: make([]bool, len(R)), rows: make(map[geom.Pair]struct{})}
	o.sweep(R, S)

	rng := rand.New(rand.NewSource(seed))
	n := sampleSize
	if n > len(R) {
		n = len(R)
	}
	sample := make([]geom.KPE, n)
	for i, ri := range rng.Perm(len(R))[:n] {
		sample[i] = R[ri]
		o.inSample[R[ri].ID] = true
	}
	// S in the outer loop: the sample stays in cache while S streams by once.
	for j := range S {
		for i := range sample {
			if sample[i].Rect.Intersects(S[j].Rect) {
				o.rows[geom.Pair{R: sample[i].ID, S: S[j].ID}] = struct{}{}
			}
		}
	}
	return o
}

// stripes is the number of horizontal bands the oracle cuts the unit
// square into, so that its sweep tests only rectangles that are close in
// y as well as in x.
const stripes = 256

func stripeOf(y float64) int {
	i := int(y * stripes)
	if i < 0 {
		return 0
	}
	if i >= stripes {
		return stripes - 1
	}
	return i
}

// sweep counts and hashes every intersecting pair: each rectangle is
// copied into every stripe it touches, each stripe is joined by a
// forward plane sweep over its rectangles sorted by left edge, and a
// pair found in several stripes counts only in the one that holds the
// lower edge of the pair's common rectangle.
func (o *oracle) sweep(R, S []geom.KPE) {
	var rs, ss [stripes][]geom.KPE
	scatter := func(ks []geom.KPE, dst *[stripes][]geom.KPE) {
		for _, k := range ks {
			for st := stripeOf(k.Rect.YL); st <= stripeOf(k.Rect.YH); st++ {
				dst[st] = append(dst[st], k)
			}
		}
	}
	scatter(R, &rs)
	scatter(S, &ss)
	byXL := func(ks []geom.KPE) {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Rect.XL < ks[j].Rect.XL })
	}
	for st := 0; st < stripes; st++ {
		a, b := rs[st], ss[st]
		byXL(a)
		byXL(b)
		found := func(r, s geom.KPE) {
			if r.Rect.IntersectsY(s.Rect) && stripeOf(math.Max(r.Rect.YL, s.Rect.YL)) == st {
				o.count++
				o.hash += pairHash(geom.Pair{R: r.ID, S: s.ID})
			}
		}
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i].Rect.XL <= b[j].Rect.XL {
				for k := j; k < len(b) && b[k].Rect.XL <= a[i].Rect.XH; k++ {
					found(a[i], b[k])
				}
				i++
			} else {
				for k := i; k < len(a) && a[k].Rect.XL <= b[j].Rect.XH; k++ {
					found(a[k], b[j])
				}
				j++
			}
		}
	}
}

// checker is the emit callback of one join: it only counts, folds the
// set hash, notes the time of the first result, and collects the
// sampled rows.
type checker struct {
	o     *oracle
	count int64
	hash  uint64
	first func()
	seen  map[geom.Pair]int
}

func (o *oracle) newChecker(first func()) *checker {
	return &checker{o: o, first: first, seen: make(map[geom.Pair]int)}
}

func (c *checker) emit(p geom.Pair) {
	if c.count == 0 {
		c.first()
	}
	c.count++
	c.hash += pairHash(p)
	if p.R < uint64(len(c.o.inSample)) && c.o.inSample[p.R] {
		c.seen[p]++
	}
}

// verdict returns "" when the join reproduced the oracle: same count,
// same set hash, and every sampled pair seen exactly once.
func (c *checker) verdict() string {
	switch {
	case c.count != c.o.count:
		return "result count differs from the oracle"
	case c.hash != c.o.hash:
		return "result set hash differs from the oracle"
	case len(c.seen) != len(c.o.rows):
		return "sampled rows differ from the brute-force rows"
	}
	for p, n := range c.seen {
		if _, ok := c.o.rows[p]; !ok || n != 1 {
			return "a sampled pair was reported more than once or is not a result"
		}
	}
	return ""
}
