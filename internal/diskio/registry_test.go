package diskio

import (
	"context"
	"errors"
	"testing"
	"time"
)

func testDisk() *Disk { return NewDisk(4096, 20, time.Microsecond) }

// TestRegistryLifecycle: Create registers, Remove unregisters and
// deletes, Sweep deletes the rest.
func TestRegistryLifecycle(t *testing.T) {
	d := testDisk()
	r := d.NewRegistry()
	a, b, c := r.Create(), r.Create(), r.Create()
	if got := r.Live(); got != 3 {
		t.Fatalf("Live = %d, want 3", got)
	}
	if got := d.NumFiles(); got != 3 {
		t.Fatalf("NumFiles = %d, want 3", got)
	}
	r.Remove(b)
	if d.open(b.Name()) != nil {
		t.Fatal("Remove left the file on disk")
	}
	if got := r.Live(); got != 2 {
		t.Fatalf("Live after Remove = %d, want 2", got)
	}
	if n := r.Sweep(); n != 2 {
		t.Fatalf("Sweep removed %d, want 2", n)
	}
	if got := d.NumFiles(); got != 0 {
		t.Fatalf("NumFiles after sweep = %d (%v), want 0", got, d.FileNames())
	}
	if d.open(a.Name()) != nil || d.open(c.Name()) != nil {
		t.Fatal("swept files still open")
	}
	// Sweep is idempotent.
	if n := r.Sweep(); n != 0 {
		t.Fatalf("second Sweep removed %d, want 0", n)
	}
}

// TestRegistryNilFiles: nil files are ignored everywhere, so error paths
// can call unconditionally.
func TestRegistryNilFiles(t *testing.T) {
	r := testDisk().NewRegistry()
	r.Remove(nil)
	if r.Live() != 0 {
		t.Fatal("nil file was registered")
	}
}

// TestDiskCancelHook: once a canceled context's hook is installed, reads
// and writes fail with the context error before touching the device —
// and removal still works, so sweeps succeed mid-abort.
func TestDiskCancelHook(t *testing.T) {
	d := testDisk()
	ctx, cancel := context.WithCancel(context.Background())
	d.SetCancel(func() error { return ctx.Err() })

	f := d.Create("f")
	w := f.NewWriter(1)
	if _, err := w.Write(make([]byte, 8192)); err != nil {
		t.Fatalf("write before cancel: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush before cancel: %v", err)
	}
	before := d.Stats()

	cancel()
	if _, err := w.Write(make([]byte, 8192)); !errors.Is(err, context.Canceled) {
		t.Fatalf("write after cancel: %v, want context.Canceled", err)
	}
	r := f.NewReader(1)
	if _, err := r.Read(make([]byte, 16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("read after cancel: %v, want context.Canceled", err)
	}
	after := d.Stats()
	if after.ReadRequests != before.ReadRequests || after.WriteRequests != before.WriteRequests {
		t.Fatalf("canceled requests were charged: %+v -> %+v", before, after)
	}

	// Cleanup must not be blocked by the hook.
	d.Remove(f.Name())
	if d.NumFiles() != 0 {
		t.Fatal("Remove failed under a canceled hook")
	}

	// Unsetting the hook restores normal service.
	d.SetCancel(nil)
	f2 := d.Create("g")
	w2 := f2.NewWriter(1)
	if _, err := w2.Write([]byte("ok")); err != nil {
		t.Fatalf("write after unhook: %v", err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatalf("flush after unhook: %v", err)
	}
}
