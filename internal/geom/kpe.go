package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// KPE is a key-pointer element: the unit of data flowing through the
// filter step of a spatial join. It pairs an object identifier (standing
// in for a pointer to the full tuple) with the object's MBR (§2 of the
// paper).
type KPE struct {
	ID   uint64
	Rect Rect
}

// KPESize is the serialized size of a KPE in bytes: an 8-byte identifier,
// four 8-byte float64 coordinates, and one reserved byte, written as zero
// and never read. Memory budgets and PBSM's partition-count formula (1)
// are expressed in these units.
const KPESize = 8 + 4*8 + 1

// EncodeKPE serializes k into buf, which must be at least KPESize bytes,
// and returns the number of bytes written.
func EncodeKPE(buf []byte, k KPE) int {
	_ = buf[KPESize-1] // bounds check hint
	binary.LittleEndian.PutUint64(buf[0:], k.ID)
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(k.Rect.XL))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(k.Rect.YL))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(k.Rect.XH))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(k.Rect.YH))
	buf[40] = 0
	return KPESize
}

// DecodeKPE deserializes a KPE from buf, which must hold at least KPESize
// bytes.
func DecodeKPE(buf []byte) KPE {
	_ = buf[KPESize-1]
	return KPE{
		ID: binary.LittleEndian.Uint64(buf[0:]),
		Rect: Rect{
			XL: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
			YL: math.Float64frombits(binary.LittleEndian.Uint64(buf[16:])),
			XH: math.Float64frombits(binary.LittleEndian.Uint64(buf[24:])),
			YH: math.Float64frombits(binary.LittleEndian.Uint64(buf[32:])),
		},
	}
}

// String formats k for debugging.
func (k KPE) String() string { return fmt.Sprintf("KPE{%d %s}", k.ID, k.Rect) }

// Pair identifies one result tuple of the filter step: the IDs of an
// intersecting (r, s) pair with r from relation R and s from relation S.
type Pair struct {
	R, S uint64
}

// PairSize is the serialized size of a Pair in bytes. The original PBSM
// duplicate-removal phase sorts records of this size.
const PairSize = 16

// EncodePair serializes p into buf (at least PairSize bytes).
func EncodePair(buf []byte, p Pair) int {
	_ = buf[PairSize-1]
	binary.LittleEndian.PutUint64(buf[0:], p.R)
	binary.LittleEndian.PutUint64(buf[8:], p.S)
	return PairSize
}

// DecodePair deserializes a Pair from buf (at least PairSize bytes).
func DecodePair(buf []byte) Pair {
	_ = buf[PairSize-1]
	return Pair{
		R: binary.LittleEndian.Uint64(buf[0:]),
		S: binary.LittleEndian.Uint64(buf[8:]),
	}
}

// Less orders pairs lexicographically by (R, S), the order used by the
// original PBSM duplicate-removal sort.
func (p Pair) Less(q Pair) bool {
	if p.R != q.R {
		return p.R < q.R
	}
	return p.S < q.S
}

// SortPairs sorts ps into Less's order with tmp, at least as long as
// ps, as scratch space: a least-significant-digit radix sort, one stable
// counting pass per byte of S and then of R, skipping every byte that is
// the same in all pairs.
func SortPairs(ps, tmp []Pair) {
	var orR, orS uint64
	andR, andS := ^uint64(0), ^uint64(0)
	for _, p := range ps {
		orR, andR = orR|p.R, andR&p.R
		orS, andS = orS|p.S, andS&p.S
	}
	src, dst := ps, tmp[:len(ps)]
	for _, w := range [...]struct {
		s      bool   // the digits come from S, else from R
		varies uint64 // the bits that differ between some two pairs
	}{{true, orS ^ andS}, {false, orR ^ andR}} {
		for shift := 0; shift < 64; shift += 8 {
			if w.varies>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for _, p := range src {
				at[p.digit(w.s, shift)]++
			}
			next := 0
			for d, n := range at {
				at[d], next = next, next+n
			}
			for _, p := range src {
				d := p.digit(w.s, shift)
				dst[at[d]] = p
				at[d]++
			}
			src, dst = dst, src
		}
	}
	if len(ps) > 0 && &src[0] != &ps[0] {
		copy(ps, src)
	}
}

// digit is byte shift/8 of p.S when s is set, of p.R otherwise.
func (p Pair) digit(s bool, shift int) byte {
	if s {
		return byte(p.S >> shift)
	}
	return byte(p.R >> shift)
}
