// Package kindfix is the clean kindswitch twin: one exhaustive switch
// and one that routes future kinds through a default clause.
package kindfix

import "spatialjoin/internal/joinerr"

// RouteAll covers every Kind constant explicitly.
func RouteAll(k joinerr.Kind) string {
	switch k {
	case joinerr.KindIO:
		return "retry"
	case joinerr.KindCanceled, joinerr.KindDeadlineExceeded:
		return "surface"
	case joinerr.KindShard:
		return "requeue"
	}
	return "unreachable"
}

// RouteDefault gives unnamed and future kinds an explicit route.
func RouteDefault(k joinerr.Kind) string {
	switch k {
	case joinerr.KindIO:
		return "retry"
	default:
		return "surface"
	}
}
