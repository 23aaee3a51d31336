// dupswitch seeds the DupMethod arm of the kindswitch analyzer: a
// switch over pbsm.DupMethod that misses DupSort and has no default —
// exactly the silent fall-through that would drop a method's dedup.
package kindfix

import "spatialjoin/internal/pbsm"

// Dedup silently ignores DupSort.
func Dedup(d pbsm.DupMethod) string {
	switch d { // want kindswitch
	case pbsm.DupRPM:
		return "reference point"
	}
	return "none"
}
