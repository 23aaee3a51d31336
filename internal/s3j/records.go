package s3j

import (
	"encoding/binary"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/sfc"
)

// levRecSize is the serialized size of a level record: the 8-byte scan
// key followed by the KPE. Attaching the key to the KPE (§4.2) means the
// locational code is computed once in the partitioning phase and reused
// by the sort of every chunk and by the synchronized scan.
const levRecSize = 8 + geom.KPESize

// levelBits is the width of the level in a scan key (sfc.MaxLevel < 32).
const levelBits = 5

// scanKey is the one number the level records are ordered by: the start
// of the cell's depth-sfc.MaxLevel code interval (48 bits) over the level.
// Ascending keys are the pre-order of the quadtree cells — a cell sorts
// before everything inside it, cells of one level sort along the curve —
// which is the order the synchronized scan consumes (§4.4.3).
func scanKey(code uint64, level int) uint64 {
	lo, _ := sfc.CodeInterval(code, level)
	return lo<<levelBits | uint64(level)
}

// keyCell recovers the cell of a scan key: its locational code, its level
// and its code interval.
func keyCell(key uint64) (code uint64, level int, lo, hi uint64) {
	level = int(key & (1<<levelBits - 1))
	lo = key >> levelBits
	shift := uint(2 * (sfc.MaxLevel - level))
	return lo >> shift, level, lo, lo + 1<<shift
}

// encodeLevRec serializes a level record into buf.
func encodeLevRec(buf []byte, key uint64, k geom.KPE) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	geom.EncodeKPE(buf[8:], k)
}

// decodeLevKey extracts just the scan key, the sort key of a run.
func decodeLevKey(buf []byte) uint64 {
	return binary.LittleEndian.Uint64(buf[0:])
}

// decodeLevRec deserializes a full level record.
func decodeLevRec(buf []byte) (uint64, geom.KPE) {
	return decodeLevKey(buf), geom.DecodeKPE(buf[8:])
}
