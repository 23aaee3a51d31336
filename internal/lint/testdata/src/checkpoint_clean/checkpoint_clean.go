// Package shj is the clean checkpoint twin: every record loop either
// polls a govern checkpoint directly or hands one to a helper.
package shj

import (
	"spatialjoin/internal/geom"
	"spatialjoin/internal/govern"
)

// Sum polls a stride checkpoint once per record.
func Sum(ks []geom.KPE, chk *govern.Check) (float64, error) {
	var total float64
	st := chk.Stride()
	for _, k := range ks {
		if err := st.Point(); err != nil {
			return 0, err
		}
		total += k.Rect.XL
	}
	return total, nil
}

// Blocks polls the Check itself once every govern.CheckInterval records,
// the rate of the stripe index's block polls: a Stride's latency bound
// without a Stride.
func Blocks(ks []geom.KPE, chk *govern.Check) (float64, error) {
	var total float64
	for i, k := range ks {
		if i%govern.CheckInterval == 0 {
			if err := chk.Now(); err != nil {
				return 0, err
			}
		}
		total += k.Rect.XL
	}
	return total, nil
}

// Drain delegates: passing the Check to a helper counts as a
// checkpoint, because the helper owns the polling.
func Drain(ks []geom.KPE, chk *govern.Check) {
	for _, k := range ks {
		consume(k, chk)
	}
}

func consume(geom.KPE, *govern.Check) {}
