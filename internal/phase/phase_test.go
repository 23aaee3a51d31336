package phase

import (
	"testing"
	"time"

	"spatialjoin/internal/diskio"
	"spatialjoin/internal/trace"
)

// write charges one request of pages pages to d.
func write(t *testing.T, d *diskio.Disk, pages int) {
	t.Helper()
	w := d.Create("").NewWriter(pages)
	if _, err := w.Write(make([]byte, pages*d.PageSize())); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func newLedger(d *diskio.Disk, sp *trace.Span) (l *Ledger, cpu *[3]time.Duration, io *[3]diskio.Stats, firstCPU *time.Duration, firstIO *float64) {
	cpu, io, firstCPU, firstIO = new([3]time.Duration), new([3]diskio.Stats), new(time.Duration), new(float64)
	return New(d, sp, cpu[:], io[:], firstCPU, firstIO), cpu, io, firstCPU, firstIO
}

// TestActivationsChargeTheirPhase: an activation charges the clock and
// the disk's deltas between Begin and End to its phase and to no other,
// repeated activations accumulate, what happens between activations is
// charged to nobody, and a nil trace is fine.
func TestActivationsChargeTheirPhase(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Microsecond)
	l, cpu, io, _, _ := newLedger(d, nil)

	a := l.Begin(1, "one")
	if a.Span != nil {
		t.Fatal("an activation of a ledger without a trace has a span")
	}
	write(t, d, 2) // 5 + 2
	time.Sleep(time.Millisecond)
	a.End()
	write(t, d, 3) // between activations: nobody's
	b := l.Begin(2, "two")
	write(t, d, 1) // 5 + 1
	b.End()
	a = l.Begin(1, "one")
	write(t, d, 4) // 5 + 4
	a.End()

	if io[0] != (diskio.Stats{}) || cpu[0] != 0 {
		t.Errorf("phase 0 never ran but was charged %+v, %v", io[0], cpu[0])
	}
	if got := io[1]; got.CostUnits != 16 || got.WriteRequests != 2 || got.PagesWritten != 6 {
		t.Errorf("phase 1 = %+v, want 2 requests, 6 pages, 16 units", got)
	}
	if got := io[2]; got.CostUnits != 6 || got.WriteRequests != 1 || got.PagesWritten != 1 {
		t.Errorf("phase 2 = %+v, want 1 request, 1 page, 6 units", got)
	}
	if cpu[1] < time.Millisecond || cpu[2] <= 0 {
		t.Errorf("phase clocks %v, %v: phase 1 slept a millisecond", cpu[1], cpu[2])
	}
	if got, all := TotalIO(io[:]).CostUnits, d.Stats().CostUnits; got != 22 || all != 30 {
		t.Errorf("total of the phases %g (disk saw %g), want 22 (30)", got, all)
	}
	if got := TotalCPU(cpu[:]); got != cpu[0]+cpu[1]+cpu[2] {
		t.Errorf("TotalCPU = %v, want the sum %v", got, cpu[0]+cpu[1]+cpu[2])
	}
	if got, want := TotalIO(io[:]), d.Stats().Sub(diskio.Stats{WriteRequests: 1, PagesWritten: 3, CostUnits: 8}); got != want {
		t.Errorf("TotalIO = %+v, want the sum of the phases %+v", got, want)
	}
}

// TestSpanOnlyChargesNothing: an activation begun while SpanOnly is set
// opens and closes its span under its own name and leaves CPU and IO
// alone — also when the flag is cleared before it ends, which is what a
// worker's last activation of a parallel region sees.
func TestSpanOnlyChargesNothing(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Microsecond)
	rec := trace.New()
	root := rec.Begin("join")
	l, cpu, io, _, _ := newLedger(d, root)

	outer := l.Begin(0, "join-phase")
	l.SpanOnly = true
	inner := l.Begin(1, "heal")
	write(t, d, 2)
	l.SpanOnly = false
	inner.End()
	outer.End()
	root.End()

	if io[1] != (diskio.Stats{}) || cpu[1] != 0 {
		t.Errorf("span-only activation charged %+v, %v", io[1], cpu[1])
	}
	if io[0].CostUnits != 7 {
		t.Errorf("the outer activation was charged %g units, want the 7 written inside it", io[0].CostUnits)
	}
	// Spans are stored as they end: heal, join-phase, join.
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans recorded, want join{join-phase, heal}", len(spans))
	}
	for i, want := range []string{"heal", "join-phase"} {
		if sp := spans[i]; sp.Name != want || sp.Parent != spans[2].ID {
			t.Errorf("span %d = %q under %d, want %q under the join span %d", i, sp.Name, sp.Parent, want, spans[2].ID)
		}
	}
}

// TestFirstFiresOnce: the first call records time and cost units since
// New; later calls change nothing.
func TestFirstFiresOnce(t *testing.T) {
	d := diskio.NewDisk(256, 5, time.Microsecond)
	write(t, d, 1) // before the join: not the join's
	l, _, _, firstCPU, firstIO := newLedger(d, nil)
	write(t, d, 2)
	l.First()
	cpu, units := *firstCPU, *firstIO
	if units != 7 || cpu <= 0 {
		t.Fatalf("First recorded %g units after %v, want 7 and a positive time", units, cpu)
	}
	write(t, d, 3)
	time.Sleep(time.Millisecond)
	l.First()
	if *firstCPU != cpu || *firstIO != units {
		t.Errorf("second First moved the record to %v, %g", *firstCPU, *firstIO)
	}
}
