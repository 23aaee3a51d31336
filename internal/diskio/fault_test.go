package diskio

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"spatialjoin/internal/metrics"
)

// TestFaultScheduleDeterministic pins the core property the chaos suite
// builds on: a seed fully determines the fault schedule.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() FaultStats {
		d := NewDisk(64, 5, time.Millisecond)
		d.SetFaultPolicy(NewFaultPolicy(FaultConfig{
			Seed:               42,
			TransientReadRate:  0.2,
			TransientWriteRate: 0.2,
			TornWriteRate:      0.1,
			BitFlipRate:        0.1,
			LatencyRate:        0.1,
		}))
		f := d.Create("a")
		w := f.NewWriter(1)
		payload := make([]byte, 64)
		for i := 0; i < 200; i++ {
			for {
				if _, err := w.Write(payload); err == nil {
					break
				}
			}
		}
		for w.Flush() != nil {
		}
		r := f.NewReader(1)
		buf := make([]byte, 64)
		for {
			ok, err := readFull(r, buf)
			if err != nil {
				continue // transient; retry
			}
			if !ok {
				break
			}
		}
		return d.FaultPolicy().Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("schedule injected no faults at these rates; test is vacuous")
	}
}

// TestTransientWriteRetryable verifies that a transient write fault
// leaves the buffer intact so re-issuing the request succeeds, and that
// the burst cap bounds consecutive failures.
func TestTransientWriteRetryable(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 1, TransientWriteRate: 1.0, MaxBurst: 2}))
	f := d.Create("a")
	w := f.NewWriter(1)
	payload := []byte("0123456789abcdef0123456789abcdef") // half a page: no flush inside Write
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("buffered write must not fault: %v", err)
	}
	fails := 0
	for {
		err := w.Flush()
		if err == nil {
			break
		}
		if !IsTransient(err) {
			t.Fatalf("expected transient fault, got %v", err)
		}
		fails++
		if fails > 2 {
			t.Fatalf("burst cap 2 exceeded: %d consecutive failures", fails)
		}
	}
	if fails == 0 {
		t.Fatal("rate 1.0 must fault at least once")
	}
	if !bytes.Equal(f.Bytes(), payload) {
		t.Fatal("retried flush lost or corrupted data")
	}
	if st := d.FaultPolicy().Stats(); st.TransientWrites != int64(fails) {
		t.Fatalf("TransientWrites = %d, want %d", st.TransientWrites, fails)
	}
}

// TestTransientReadRetryable verifies the read-side mirror: the unread
// range survives a transient fault.
func TestTransientReadRetryable(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(1)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	w.Write(payload)
	w.Flush()

	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 7, TransientReadRate: 1.0, MaxBurst: 2}))
	r := f.NewReader(1)
	got := make([]byte, 256)
	n, fails := 0, 0
	for n < len(got) {
		m, err := r.Read(got[n:])
		n += m
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("expected transient fault, got %v", err)
			}
			fails++
			if fails > 20 {
				t.Fatal("reads never succeed; burst cap broken")
			}
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("retried reads returned wrong data")
	}
	if fails == 0 {
		t.Fatal("rate 1.0 must fault at least once")
	}
}

// TestTornWriteSilentPrefix verifies that a torn write persists a strict
// prefix and reports success — detection belongs to the layer above.
func TestTornWriteSilentPrefix(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 3, TornWriteRate: 1.0}))
	f := d.Create("a")
	w := f.NewWriter(1)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = 0xAB
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush after torn write: %v", err)
	}
	if f.Len() == 0 || f.Len() >= len(payload) {
		t.Fatalf("torn write persisted %d bytes, want a strict non-empty prefix of %d", f.Len(), len(payload))
	}
	if !bytes.Equal(f.Bytes(), payload[:f.Len()]) {
		t.Fatal("torn write must persist a prefix, not scrambled bytes")
	}
	if st := d.FaultPolicy().Stats(); st.TornWrites == 0 {
		t.Fatal("torn write not counted")
	}
}

// TestBitFlipSilentCorruption verifies that a bit flip keeps the length
// and flips exactly one bit.
func TestBitFlipSilentCorruption(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 5, BitFlipRate: 1.0}))
	f := d.Create("a")
	w := f.NewWriter(1)
	payload := make([]byte, 64)
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("bit-flip write must report success, got %v", err)
	}
	w.Flush()
	if f.Len() != len(payload) {
		t.Fatalf("bit flip changed length: %d", f.Len())
	}
	flipped := 0
	for i, b := range f.Bytes() {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<bit) != payload[i]&(1<<bit) {
				flipped++
			}
		}
	}
	if flipped != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", flipped)
	}
}

// TestLatencySpikeChargesExtraPositioning verifies the latency fault is
// purely a cost-model event.
func TestLatencySpikeChargesExtraPositioning(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 9, LatencyRate: 1.0}))
	f := d.Create("a")
	w := f.NewWriter(1)
	w.Write(make([]byte, 100))
	if err := w.Flush(); err != nil {
		t.Fatalf("latency spike must not fail the request: %v", err)
	}
	st := d.Stats()
	if want := 20.0 + (20.0 + 1.0); st.CostUnits != want { // extra PT + normal request
		t.Fatalf("CostUnits = %g, want %g", st.CostUnits, want)
	}
	if !bytes.Equal(f.Bytes(), make([]byte, 100)) {
		t.Fatal("latency spike corrupted data")
	}
}

// TestDisableFreezesPolicy verifies Disable stops further injection.
func TestDisableFreezesPolicy(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	fp := NewFaultPolicy(FaultConfig{Seed: 11, TransientWriteRate: 1.0})
	d.SetFaultPolicy(fp)
	fp.Disable()
	f := d.Create("a")
	w := f.NewWriter(1)
	w.Write(make([]byte, 64))
	if err := w.Flush(); err != nil {
		t.Fatalf("disabled policy must not inject: %v", err)
	}
	if fp.Stats().Total() != 0 {
		t.Fatal("disabled policy counted faults")
	}
}

// eventLog is a Tracer that records the events it is handed.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) IOEvent(kind, file string) {
	l.mu.Lock()
	l.events = append(l.events, kind+" "+file)
	l.mu.Unlock()
}

// TestNoteRetry: a retry is counted on the disk's Stats and the live
// registry and traced as a retry event, and NoteRetry hands back the
// cancel hook's error so a canceled join stops retrying. The retry that
// meets the cancellation is still counted: the request did fail.
func TestNoteRetry(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	log := &eventLog{}
	reg := metrics.New()
	d.SetTracer(log)
	d.SetMetrics(reg)
	if err := d.NoteRetry("f"); err != nil {
		t.Fatalf("NoteRetry = %v, want nil", err)
	}
	boom := errors.New("canceled")
	d.SetCancel(func() error { return boom })
	if err := d.NoteRetry("g"); !errors.Is(err, boom) {
		t.Fatalf("NoteRetry on a canceled disk = %v, want the hook's error", err)
	}
	if got := d.Stats().Retries; got != 2 {
		t.Fatalf("Stats().Retries = %d, want 2", got)
	}
	if got := reg.Snapshot().Value(metRetries); got != 2 {
		t.Fatalf("%s = %v, want 2", metRetries, got)
	}
	if want := []string{"retry f", "retry g"}; len(log.events) != 2 || log.events[0] != want[0] || log.events[1] != want[1] {
		t.Fatalf("traced %q, want %q", log.events, want)
	}
	if st := d.Stats(); st.ReadRequests+st.WriteRequests != 0 || st.CostUnits != 0 {
		t.Fatalf("a retry charged the device: %+v", st)
	}
}
