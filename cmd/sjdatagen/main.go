// Command sjdatagen generates the synthetic TIGER-like datasets of the
// experiments and reports their Table 1 statistics (cardinality,
// coverage), optionally dumping the rectangles as tab-separated values
// for external tooling.
//
// Usage:
//
//	sjdatagen [-d la_rr|la_st|cal_st] [-n 0] [-p 1] [-seed 1] [-dump]
//
// -n 0 selects the published cardinality of Table 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"spatialjoin/internal/datagen"
	"spatialjoin/internal/sfc"
	"spatialjoin/internal/tsv"
)

func main() {
	name := flag.String("d", "la_rr", "dataset: la_rr, la_st or cal_st")
	n := flag.Int("n", 0, "cardinality (0 = published size from Table 1)")
	p := flag.Float64("p", 1, "edge scale factor, as in LA_RR(p)")
	seed := flag.Int64("seed", 1, "generator seed")
	dump := flag.Bool("dump", false, "write rectangles as TSV (id xl yl xh yh) to stdout")
	flag.Parse()

	var ds datagen.Dataset
	switch *name {
	case "la_rr":
		ds = datagen.LARR(*seed, *n)
	case "la_st":
		ds = datagen.LAST(*seed, *n)
	case "cal_st":
		ds = datagen.CALST(*seed, *n)
	default:
		fmt.Fprintf(os.Stderr, "sjdatagen: unknown dataset %q\n", *name)
		os.Exit(2)
	}
	ks := ds.KPEs
	label := ds.Name
	if *p > 1 {
		ks = datagen.Scale(ks, *p)
		label = fmt.Sprintf("%s(%g)", ds.Name, *p)
	}

	if *dump {
		if err := tsv.Write(os.Stdout, ks); err != nil {
			fmt.Fprintf(os.Stderr, "sjdatagen: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("dataset   %s (seed %d)\n", label, *seed)
	fmt.Printf("MBRs      %d\n", len(ks))
	fmt.Printf("coverage  %.4f\n", datagen.Coverage(ks))

	// Size-separation profile: how the rectangles would distribute over
	// MX-CIF levels under the containment rule vs the size rule of §4.3.
	const levels = 10
	var byContain, bySize [levels + 1]int
	for _, k := range ks {
		l, _, _ := sfc.ContainmentLevel(k.Rect, levels)
		byContain[l]++
		bySize[sfc.SizeLevel(k.Rect, levels)]++
	}
	fmt.Printf("level profile (0=root .. %d):\n", levels)
	fmt.Printf("  containment rule: %v\n", byContain)
	fmt.Printf("  size rule (§4.3): %v\n", bySize)
}
