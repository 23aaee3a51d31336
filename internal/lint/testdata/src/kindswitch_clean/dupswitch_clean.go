// dupswitch_clean is the clean DupMethod twin: one exhaustive switch
// and one that routes unknown methods through a default clause.
package kindfix

import "spatialjoin/internal/pbsm"

// DedupAll covers every DupMethod constant explicitly.
func DedupAll(d pbsm.DupMethod) string {
	switch d {
	case pbsm.DupRPM:
		return "reference point"
	case pbsm.DupSort:
		return "sort phase"
	}
	return "unreachable"
}

// DedupDefault fails loudly on unknown methods.
func DedupDefault(d pbsm.DupMethod) string {
	switch d {
	case pbsm.DupRPM:
		return "duplicate-free on its own"
	default:
		return "reject"
	}
}
