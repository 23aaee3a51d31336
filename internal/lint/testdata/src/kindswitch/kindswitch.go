// Package kindfix is a kindswitch fixture: a switch over joinerr.Kind
// that misses constants and has no default to route future kinds.
package kindfix

import "spatialjoin/internal/joinerr"

// Route silently drops KindDeadlineExceeded and KindShard.
func Route(k joinerr.Kind) string {
	switch k { // want kindswitch
	case joinerr.KindIO:
		return "retry"
	case joinerr.KindCanceled:
		return "surface"
	}
	return "unrouted"
}
