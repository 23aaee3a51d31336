package diskio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaults(t *testing.T) {
	d := NewDisk(0, 0, 0)
	if d.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d", d.PageSize())
	}
	if d.PT() != DefaultPT {
		t.Errorf("PT = %g", d.PT())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDisk(128, 10, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(2)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	for i := 0; i < 100; i++ {
		w.Write(payload)
	}
	w.Flush()
	if f.Len() != 100*len(payload) {
		t.Fatalf("file length %d, want %d", f.Len(), 100*len(payload))
	}
	r := f.NewReader(2)
	got := make([]byte, len(payload))
	for i := 0; i < 100; i++ {
		ok, err := r.ReadFull(got)
		if err != nil || !ok {
			t.Fatalf("short read at record %d (ok=%v err=%v)", i, ok, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	if ok, _ := r.ReadFull(got); ok {
		t.Fatal("read past end must fail")
	}
}

func TestCostModelPerRequest(t *testing.T) {
	// A request of n contiguous pages costs PT + n.
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(4) // 400-byte buffer
	w.Write(make([]byte, 400))
	w.Flush() // one full flush inside Write already? exactly at boundary: flushed once
	st := d.Stats()
	if st.WriteRequests != 1 {
		t.Fatalf("WriteRequests = %d, want 1", st.WriteRequests)
	}
	if st.PagesWritten != 4 {
		t.Fatalf("PagesWritten = %d, want 4", st.PagesWritten)
	}
	if st.CostUnits != 24 { // PT(20) + 4 pages
		t.Fatalf("CostUnits = %g, want 24", st.CostUnits)
	}
}

func TestSequentialReadBatchesPages(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(8)
	w.Write(make([]byte, 1600)) // 16 pages
	w.Flush()
	before := d.Stats()

	r := f.NewReader(8) // 8 pages per request
	buf := make([]byte, 1600)
	r.ReadFull(buf)
	st := d.Stats().Sub(before)
	if st.ReadRequests != 2 {
		t.Fatalf("ReadRequests = %d, want 2 (two 8-page requests)", st.ReadRequests)
	}
	if st.CostUnits != 2*(20+8) {
		t.Fatalf("CostUnits = %g, want 56", st.CostUnits)
	}
}

func TestPartialPageChargedAsFullPage(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(1)
	w.Write(make([]byte, 1)) // 1 byte -> 1 page on flush
	w.Flush()
	if st := d.Stats(); st.PagesWritten != 1 {
		t.Fatalf("PagesWritten = %d, want 1", st.PagesWritten)
	}
}

func TestEmptyFlushIsFree(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(1)
	w.Flush()
	w.Flush()
	if st := d.Stats(); st.CostUnits != 0 {
		t.Fatalf("empty flushes must be free, cost = %g", st.CostUnits)
	}
}

func TestReadAtCharges(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(4)
	w.Write(make([]byte, 1000))
	w.Flush()
	before := d.Stats()
	buf := make([]byte, 250)
	if n, err := f.ReadAt(buf, 100); n != 250 || err != nil {
		t.Fatalf("ReadAt = (%d, %v)", n, err)
	}
	st := d.Stats().Sub(before)
	if st.ReadRequests != 1 || st.PagesRead != 3 { // 250 bytes = 3 pages of 100
		t.Fatalf("stats = %+v", st)
	}
}

// TestReadAtEdges pins the io.ReaderAt contract at the two boundary
// conditions that used to be conflated: an offset at or past EOF is a
// normal end-of-data condition (io.EOF), while a negative offset is a
// caller bug and gets its own error.
func TestReadAtEdges(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(4)
	w.Write(make([]byte, 1000))
	w.Flush()

	buf := make([]byte, 250)
	if n, err := f.ReadAt(buf, int64(f.Len())); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt at EOF = (%d, %v), want (0, io.EOF)", n, err)
	}
	if n, err := f.ReadAt(buf, int64(f.Len())+1000); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt past EOF = (%d, %v), want (0, io.EOF)", n, err)
	}
	if n, err := f.ReadAt(buf, -1); n != 0 || !errors.Is(err, ErrNegativeOffset) {
		t.Fatalf("ReadAt(-1) = (%d, %v), want (0, ErrNegativeOffset)", n, err)
	}
	if errors.Is(io.EOF, ErrNegativeOffset) || errors.Is(ErrNegativeOffset, io.EOF) {
		t.Fatal("the two edge errors must be distinguishable")
	}
	// A short read at the tail returns the data it could get plus io.EOF.
	if n, err := f.ReadAt(buf, int64(f.Len())-100); n != 100 || err != io.EOF {
		t.Fatalf("short tail ReadAt = (%d, %v), want (100, io.EOF)", n, err)
	}
}

func TestRangeReader(t *testing.T) {
	d := NewDisk(64, 5, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(4)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	w.Write(data)
	w.Flush()

	r := f.NewRangeReader(2, 100, 300)
	buf := make([]byte, 201)
	if n, err := r.Read(buf); n != 200 || err != nil {
		t.Fatalf("range read = (%d, %v), want 200 bytes", n, err)
	}
	if !bytes.Equal(buf[:200], data[100:300]) {
		t.Fatal("range contents wrong")
	}
	if n, _ := r.Read(buf); n != 0 {
		t.Fatalf("read past the range returned %d bytes", n)
	}
	// Out-of-bounds ranges clamp.
	r = f.NewRangeReader(2, 900, 5000)
	if n, err := r.Read(buf); n != 100 || err != nil || !bytes.Equal(buf[:n], data[900:]) {
		t.Fatalf("clamped range read = (%d, %v), want the last 100 bytes", n, err)
	}
}

// TestReaderWindows: a Reader charges one request per window of bufPages
// pages, PT·⌈bytes/window⌉ + pages in all, whatever the window, wherever
// the range starts and however it meets the extent seams; it copies the
// range's bytes exactly once and nothing past it.
func TestReaderWindows(t *testing.T) {
	const page, pt = 512, 20
	for _, size := range []int{1000, extentSize, 2*extentSize + 777} {
		d := NewDisk(page, pt, 0)
		f := d.Create("a")
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		f.append(data)
		for _, win := range []int{1, 3, 4, 64} {
			for _, lo := range []int{0, 1, size / 3, max(size-extentSize/2, 0)} {
				before := d.Stats()
				r := f.NewRangeReader(win, int64(lo), int64(size)+99)
				got := make([]byte, 0, size-lo+1)
				for chunk := make([]byte, 1000); ; {
					n, err := r.Read(chunk)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					got = append(got, chunk[:n]...)
				}
				if !bytes.Equal(got, data[lo:]) {
					t.Fatalf("size %d window %d from %d: read %d bytes, want the %d of the range", size, win, lo, len(got), size-lo)
				}
				n, wb := int64(size-lo), int64(win*page)
				reqs, pages := (n+wb-1)/wb, (n+page-1)/page
				st := d.Stats().Sub(before)
				if st.ReadRequests != reqs || st.PagesRead != pages || st.CostUnits != float64(pt*reqs+pages) {
					t.Errorf("size %d window %d from %d: %d requests, %d pages, %g units; want %d, %d, %d",
						size, win, lo, st.ReadRequests, st.PagesRead, st.CostUnits, reqs, pages, pt*reqs+pages)
				}
			}
		}
	}
}

// TestReaderRetriesTheWindow: a transient fault on a window's request
// returns what the earlier windows held and leaves the failed window
// unread and uncharged, so the retry issues that same request.
func TestReaderRetriesTheWindow(t *testing.T) {
	const page, win = 100, 3
	d := NewDisk(page, 20, 0)
	f := d.Create("a")
	data := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(data)
	f.append(data)
	// Every request faults once and then succeeds.
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 1, TransientReadRate: 1, MaxBurst: 1}))
	r := f.NewReader(win)
	got := make([]byte, len(data))
	var at, faults int
	for at < len(got) {
		n, err := r.Read(got[at:])
		if n%(win*page) != 0 && at+n != len(data) {
			t.Fatalf("read of %d bytes from %d ends inside a window", n, at)
		}
		at += n
		if err == nil {
			continue
		}
		if !IsTransient(err) {
			t.Fatal(err)
		}
		faults++
		if st := d.Stats(); st.ReadRequests != int64(at/(win*page)) {
			t.Fatalf("after %d bytes and a fault: %d requests charged, want %d", at, st.ReadRequests, at/(win*page))
		}
	}
	wantReqs := int64((len(data) + win*page - 1) / (win * page))
	if !bytes.Equal(got, data) || faults != int(wantReqs) || d.Stats().ReadRequests != wantReqs {
		t.Fatalf("equal %v, %d faults, %d requests; want the data, %d and %d",
			bytes.Equal(got, data), faults, d.Stats().ReadRequests, wantReqs, wantReqs)
	}
}

// TestReaderWindowCostsNoMemory: a wide window allocates nothing a
// one-page window does not — the Reader copies straight from the file.
func TestReaderWindowCostsNoMemory(t *testing.T) {
	d := NewDisk(512, 20, 0)
	f := d.Create("a")
	f.append(make([]byte, 3*extentSize+5))
	buf := make([]byte, 4096)
	scan := func(win int) float64 {
		return testing.AllocsPerRun(20, func() {
			r := f.NewReader(win)
			for {
				if n, _ := r.Read(buf); n == 0 {
					return
				}
			}
		})
	}
	if one, wide := scan(1), scan(256); wide > one {
		t.Fatalf("a 256-page window allocates %g per scan, a 1-page window %g", wide, one)
	}
}

// append stages p and commits it: a file that holds p at its end, the
// way a Writer leaves it after a healthy request.
func (f *File) append(p []byte) {
	f.stage(p)
	f.commit(len(p))
}

// bufWriter is the buffered writer Writer replaced: it copies every byte
// into a private buffer of one window and appends the buffer per request.
// It stays here as the reference TestWriterMatchesBufferedReference
// holds Writer to.
type bufWriter struct {
	f   *File
	buf []byte
	n   int
}

func (w *bufWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := copy(w.buf[w.n:], p)
		w.n += n
		total += n
		p = p[n:]
		if w.n == len(w.buf) {
			if err := w.Flush(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

func (w *bufWriter) Flush() error {
	if w.n == 0 {
		return nil
	}
	d := w.f.d
	if err := d.checkCancel(); err != nil {
		return err
	}
	if fp := d.FaultPolicy(); fp != nil {
		act, arg := fp.onWrite(w.n)
		switch act {
		case writeTransient:
			return &FaultError{Op: "write", File: w.f.name, Transient: true}
		case writeTorn:
			w.f.append(w.buf[:arg])
			d.chargeWrite(arg)
			w.n = 0
			d.emitEvent("torn-write", w.f.name)
			return nil
		case writeFlip:
			at := w.f.size + arg/8
			w.f.append(w.buf[:w.n])
			w.f.ext[at/extentSize][at%extentSize] ^= 1 << (arg % 8)
			d.chargeWrite(w.n)
			w.n = 0
			d.emitEvent("bit-flip", w.f.name)
			return nil
		case writeLatency:
			d.chargeLatencySpike(w.f.name)
		}
	}
	w.f.append(w.buf[:w.n])
	d.chargeWrite(w.n)
	w.n = 0
	return nil
}

// TestWriterMatchesBufferedReference: over random write sizes, flushes
// at random points, windows of 1, 3, 4 and 64 pages and fault schedules
// with every kind of write fault, Writer leaves the same bytes, the same
// Stats and the same fault draws as the buffered writer it replaced, each
// retried the way the record layers retry a transient fault.
func TestWriterMatchesBufferedReference(t *testing.T) {
	const page = 100
	type writer interface {
		Write([]byte) (int, error)
		Flush() error
	}
	for _, win := range []int{1, 3, 4, 64} {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(win)))
			data := make([]byte, 3*extentSize+rng.Intn(extentSize))
			rng.Read(data)
			var cuts []int // write sizes; a negative one is a Flush
			for left := len(data); left > 0; {
				if rng.Intn(8) == 0 {
					cuts = append(cuts, -1)
				}
				n := min(left, rng.Intn(3*page*win))
				cuts = append(cuts, n)
				left -= n
			}
			run := func(newWriter func(*File) writer) (*Disk, *File) {
				d := NewDisk(page, 20, 0)
				if seed > 0 {
					d.SetFaultPolicy(NewFaultPolicy(FaultConfig{
						Seed:               seed,
						TransientWriteRate: 0.2,
						TornWriteRate:      0.05,
						BitFlipRate:        0.1,
						LatencyRate:        0.1,
					}))
				}
				f := d.Create("a")
				w := newWriter(f)
				flush := func() {
					for {
						err := w.Flush()
						if err == nil {
							return
						}
						if !IsTransient(err) {
							t.Fatal(err)
						}
					}
				}
				at := 0
				for _, c := range cuts {
					if c < 0 {
						flush()
						continue
					}
					for p := data[at : at+c]; ; {
						n, err := w.Write(p)
						p = p[n:]
						if err == nil {
							break
						}
						if !IsTransient(err) {
							t.Fatal(err)
						}
					}
					at += c
				}
				flush()
				return d, f
			}
			dg, fg := run(func(f *File) writer { return f.NewWriter(win) })
			dw, fw := run(func(f *File) writer { return &bufWriter{f: f, buf: make([]byte, win*page)} })
			if !bytes.Equal(fg.Bytes(), fw.Bytes()) || dg.Stats() != dw.Stats() {
				t.Fatalf("window %d seed %d: %d bytes (equal %v), %+v; the reference %d bytes, %+v",
					win, seed, fg.Len(), bytes.Equal(fg.Bytes(), fw.Bytes()), dg.Stats(), fw.Len(), dw.Stats())
			}
			if seed > 0 && dg.FaultPolicy().Stats() != dw.FaultPolicy().Stats() {
				t.Fatalf("window %d seed %d: faults %+v, the reference %+v", win, seed, dg.FaultPolicy().Stats(), dw.FaultPolicy().Stats())
			}
		}
	}
}

// TestWriterRetriesTheWindow: a transient fault on a window's request
// leaves its bytes staged, where neither Len nor a reader sees them, and
// the retry charges that request once.
func TestWriterRetriesTheWindow(t *testing.T) {
	const page, win = 100, 3
	d := NewDisk(page, 20, 0)
	f := d.Create("a")
	data := make([]byte, 1000)
	rand.New(rand.NewSource(1)).Read(data)
	// Every request faults once and then succeeds.
	fp := NewFaultPolicy(FaultConfig{Seed: 1, TransientWriteRate: 1, MaxBurst: 1})
	w := f.NewWriter(win)
	var at, faults int
	check := func(staged int) {
		t.Helper()
		// Reads run without the policy: a read draw would reset its burst.
		d.SetFaultPolicy(nil)
		defer d.SetFaultPolicy(fp)
		committed := at - staged
		if f.Len() != committed || f.Pages() != int64((committed+page-1)/page) {
			t.Fatalf("after %d bytes: Len %d, Pages %d; want %d committed", at, f.Len(), f.Pages(), committed)
		}
		got := make([]byte, len(data))
		if n, _ := f.NewReader(64).Read(got); n != committed || !bytes.Equal(got[:n], data[:committed]) {
			t.Fatalf("after %d bytes: a reader saw %d, want the %d committed", at, n, committed)
		}
		if n, err := f.ReadAt(got, 0); n != committed || err != io.EOF {
			t.Fatalf("after %d bytes: ReadAt of the whole data = (%d, %v), want the %d committed", at, n, err, committed)
		}
		if st := d.Stats(); st.WriteRequests != int64(committed/(win*page)) {
			t.Fatalf("after %d bytes: %d requests charged, want %d", at, st.WriteRequests, committed/(win*page))
		}
	}
	d.SetFaultPolicy(fp)
	for at < len(data) {
		n, err := w.Write(data[at:])
		at += n
		if err == nil {
			continue
		}
		if !IsTransient(err) {
			t.Fatal(err)
		}
		faults++
		check(win * page)
	}
	for {
		err := w.Flush()
		if err == nil {
			break
		}
		faults++
		check(len(data) % (win * page))
	}
	reqs := int64((len(data) + win*page - 1) / (win * page))
	st := d.Stats()
	if !bytes.Equal(f.Bytes(), data) || faults != int(reqs) || st.WriteRequests != reqs || st.PagesWritten != 10 {
		t.Fatalf("equal %v, %d faults, %+v; want the data, %d faults, %d requests and 10 pages", bytes.Equal(f.Bytes(), data), faults, st, reqs, reqs)
	}
}

// TestWriterWindowCostsNoMemory: writing a file through a wide window
// allocates no more than through a one-page window — the Writer stages
// its bytes in the file instead of a buffer of the window's size.
func TestWriterWindowCostsNoMemory(t *testing.T) {
	d := NewDisk(512, 20, 0)
	rec := make([]byte, 4096)
	write := func(win int) uint64 {
		best := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := 0; i < 5; i++ {
			f := d.Create("a")
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			w := f.NewWriter(win)
			for n := 0; n < 3*extentSize+5; n += len(rec) {
				w.Write(rec)
			}
			w.Flush()
			runtime.ReadMemStats(&ms)
			best = min(best, ms.TotalAlloc-before)
		}
		return best
	}
	if one, wide := write(1), write(256); wide > one {
		t.Fatalf("writing through a 256-page window allocates %d bytes, through a 1-page window %d", wide, one)
	}
}

func TestCreateRemoveOpen(t *testing.T) {
	d := NewDisk(0, 0, 0)
	f := d.Create("x")
	if d.Open("x") != f {
		t.Fatal("Open must find created file")
	}
	a := d.Create("")
	b := d.Create("")
	if a.Name() == b.Name() {
		t.Fatal("anonymous files must get unique names")
	}
	d.Remove("x")
	if d.Open("x") != nil {
		t.Fatal("Remove must delete the file")
	}
}

func TestSimTimeConversion(t *testing.T) {
	d := NewDisk(100, 20, time.Millisecond)
	f := d.Create("a")
	w := f.NewWriter(1)
	w.Write(make([]byte, 100))
	w.Flush() // cost = 21 units
	if got, want := d.CostTime(d.Stats().CostUnits), 21*time.Millisecond; got != want {
		t.Fatalf("CostTime = %v, want %v", got, want)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{ReadRequests: 1, WriteRequests: 2, PagesRead: 3, PagesWritten: 4, CostUnits: 5}
	b := a
	b.Add(a)
	if b.PagesRead != 6 || b.CostUnits != 10 {
		t.Fatalf("Add wrong: %+v", b)
	}
	if d := b.Sub(a); d != a {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

// Round-trip property: any sequence of writes reads back identically,
// regardless of buffer sizes.
func TestWriterReaderProperty(t *testing.T) {
	f := func(seed int64, bufW, bufR uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDisk(32, 5, time.Millisecond)
		file := d.Create("p")
		w := file.NewWriter(int(bufW%7) + 1)
		var all []byte
		for i := 0; i < 50; i++ {
			chunk := make([]byte, rng.Intn(100))
			rng.Read(chunk)
			w.Write(chunk)
			all = append(all, chunk...)
		}
		w.Flush()
		got := make([]byte, len(all))
		r := file.NewReader(int(bufR%7) + 1)
		if len(all) > 0 {
			if ok, err := r.ReadFull(got); !ok || err != nil {
				return false
			}
		}
		return bytes.Equal(got, all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadsAccountCorrectly(t *testing.T) {
	// Multiple goroutines reading distinct files must not lose charges —
	// the contract PBSM's parallel join phase relies on.
	d := NewDisk(100, 20, time.Millisecond)
	const files = 8
	const pagesPer = 16
	names := make([]string, files)
	for i := range names {
		f := d.Create("")
		w := f.NewWriter(pagesPer)
		w.Write(make([]byte, pagesPer*100))
		w.Flush()
		names[i] = f.Name()
	}
	base := d.Stats()

	var wg sync.WaitGroup
	for i := 0; i < files; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			r := d.Open(name).NewReader(2) // 8 requests of 2 pages each
			buf := make([]byte, pagesPer*100)
			if ok, err := r.ReadFull(buf); !ok || err != nil {
				t.Errorf("concurrent read failed (ok=%v err=%v)", ok, err)
			}
		}(names[i])
	}
	wg.Wait()

	delta := d.Stats().Sub(base)
	wantPages := int64(files * pagesPer)
	wantReqs := int64(files * pagesPer / 2)
	if delta.PagesRead != wantPages || delta.ReadRequests != wantReqs {
		t.Fatalf("lost charges under concurrency: %+v (want %d pages, %d requests)",
			delta, wantPages, wantReqs)
	}
	if want := float64(wantPages) + 20*float64(wantReqs); delta.CostUnits != want {
		t.Fatalf("cost units %g, want %g", delta.CostUnits, want)
	}
}

// extOp is one step of the extent model test. Sizes and offsets are
// picked by near, so most of them sit on an extent seam or one byte to
// either side of it.
type extOp struct {
	kind byte // 0 write, 1 flush, 2 ReadAt, 3 range reader
	a, b int
}

// near maps a 16-bit choice to a byte count in [0, limit]: mostly a
// multiple of extentSize moved by -2..2 bytes, sometimes a page multiple
// or a small number.
func near(v uint16, pageSize, limit int) int {
	var n int
	switch k := int(v >> 4); v & 15 {
	case 0, 1, 2, 3, 4:
		n = (k%4)*extentSize + int(v&15) - 2
	case 5:
		n = k % 64 * pageSize
	case 6:
		n = extentSize/2 + k
	default:
		n = k
	}
	return min(max(n, 0), limit)
}

// checkExtentOps applies ops to a File and to a flat []byte model and
// fails on the first disagreement. With faultSeed != 0 every write
// request consults a fault policy that tears or flips it; a twin policy
// with the same seed tells the model what the device was told to do, so
// the model knows the persisted prefix and the flipped bit's absolute
// offset without asking the file.
func checkExtentOps(t testing.TB, pageSize, bufPages int, faultSeed int64, ops []extOp) {
	t.Helper()
	const maxFile = 6 * extentSize
	d := NewDisk(pageSize, 5, time.Millisecond)
	var fp, twin *FaultPolicy
	if faultSeed != 0 {
		cfg := FaultConfig{Seed: faultSeed, TornWriteRate: 0.3, BitFlipRate: 0.4}
		fp, twin = NewFaultPolicy(cfg), NewFaultPolicy(cfg)
	}
	f := d.Create("x")
	w := f.NewWriter(bufPages)
	bufSize := max(bufPages, 1) * pageSize

	var model, clean, pending []byte // clean: model without the bit flips
	flips := map[int]bool{}          // absolute bit offsets flipped an odd number of times
	var wantReqs, wantPages int64
	flush := func() {
		if len(pending) == 0 {
			return
		}
		keep, bit := len(pending), -1
		if twin != nil {
			switch act, arg := twin.onWrite(len(pending)); act {
			case writeTorn:
				keep = arg
			case writeFlip:
				bit = len(model)*8 + arg
			}
		}
		model = append(model, pending[:keep]...)
		clean = append(clean, pending[:keep]...)
		if bit >= 0 {
			model[bit/8] ^= 1 << (bit % 8)
			flips[bit] = !flips[bit]
		}
		wantReqs++
		wantPages += int64((keep + pageSize - 1) / pageSize)
		pending = pending[:0]
	}

	rng := rand.New(rand.NewSource(int64(len(ops))))
	for i, op := range ops {
		switch op.kind {
		case 0:
			if len(model)+len(pending)+op.a > maxFile {
				continue
			}
			p := make([]byte, op.a)
			rng.Read(p)
			d.SetFaultPolicy(fp)
			if n, err := w.Write(p); n != len(p) || err != nil {
				t.Fatalf("op %d: Write(%d) = (%d, %v)", i, len(p), n, err)
			}
			for len(p) > 0 {
				n := min(len(p), bufSize-len(pending))
				pending = append(pending, p[:n]...)
				p = p[n:]
				if len(pending) == bufSize {
					flush()
				}
			}
		case 1:
			d.SetFaultPolicy(fp)
			if err := w.Flush(); err != nil {
				t.Fatalf("op %d: Flush: %v", i, err)
			}
			flush()
		case 2:
			// Reads run without the policy: a read request would draw from
			// its generator and the twin would fall out of step.
			d.SetFaultPolicy(nil)
			off, p := int64(op.a), make([]byte, op.b)
			n, err := f.ReadAt(p, off)
			want := model[min(op.a, len(model)):min(op.a+op.b, len(model))]
			wantErr := io.EOF
			if len(want) == len(p) && op.a < len(model) {
				wantErr = nil
			}
			if n != len(want) || err != wantErr || !bytes.Equal(p[:n], want) {
				t.Fatalf("op %d: ReadAt(len %d, off %d) on %d bytes = (%d, %v), want (%d, %v) and the model's bytes",
					i, len(p), off, len(model), n, err, len(want), wantErr)
			}
		case 3:
			d.SetFaultPolicy(nil)
			lo, hi := op.a, op.a+op.b
			want := model[min(lo, len(model)):min(hi, len(model))]
			r := f.NewRangeReader(1+i%3, int64(lo), int64(hi))
			got := make([]byte, len(want)+1)
			if n, err := r.Read(got); n != len(want) || err != nil || !bytes.Equal(got[:n], want) {
				t.Fatalf("op %d: range [%d, %d) of %d bytes read (%d, %v), want %d bytes of the model", i, lo, hi, len(model), n, err, len(want))
			}
		}
		if f.Len() != len(model) || f.Pages() != int64((len(model)+pageSize-1)/pageSize) {
			t.Fatalf("op %d: Len %d Pages %d on a model of %d bytes", i, f.Len(), f.Pages(), len(model))
		}
	}

	got := f.Bytes()
	if !bytes.Equal(got, model) {
		t.Fatalf("Bytes() differs from the model (%d vs %d bytes)", len(got), len(model))
	}
	if len(got) > 0 {
		got[0] ^= 0xff
		if f.Bytes()[0] != model[0] {
			t.Fatal("Bytes() must be a copy: writing to it changed the file")
		}
		got[0] ^= 0xff
	}
	for i := range got {
		for b := 0; b < 8; b++ {
			if differs := (got[i]^clean[i])>>b&1 == 1; differs != flips[i*8+b] {
				t.Fatalf("bit %d of byte %d: differs from what was written = %v, flipped by the policy = %v", b, i, differs, flips[i*8+b])
			}
		}
	}
	if st := d.Stats(); st.WriteRequests != wantReqs || st.PagesWritten != wantPages {
		t.Fatalf("charged %d write requests / %d pages, the model %d / %d", st.WriteRequests, st.PagesWritten, wantReqs, wantPages)
	}
	if fp != nil && fp.Stats() != twin.Stats() {
		t.Fatalf("fault policy %+v and its twin %+v fell out of step", fp.Stats(), twin.Stats())
	}
}

// extOpsFromBytes decodes a fuzz input: five bytes per op.
func extOpsFromBytes(script []byte, pageSize int) []extOp {
	var ops []extOp
	for ; len(script) >= 5; script = script[5:] {
		a := uint16(script[1]) | uint16(script[2])<<8
		b := uint16(script[3]) | uint16(script[4])<<8
		ops = append(ops, extOp{kind: script[0] % 4, a: near(a, pageSize, 4*extentSize), b: near(b, pageSize, 2*extentSize)})
	}
	return ops
}

// TestFileExtents drives files through writes, flushes, positioned reads
// and range readers against a flat byte-slice model, with buffer sizes
// that divide an extent, equal it, span two, and share no factor with it,
// healthy and under torn-write and bit-flip faults.
func TestFileExtents(t *testing.T) {
	shapes := []struct{ pageSize, bufPages int }{
		{8192, 1},  // 8 flushes fill an extent exactly
		{8192, 8},  // one flush is one extent
		{8192, 16}, // one flush spans two extents
		{4096, 3},  // 12 KiB flushes straddle every seam
		{100, 7},   // 700-byte flushes, pages that never align
		{extentSize + 1, 1},
	}
	for _, sh := range shapes {
		for faultSeed := int64(0); faultSeed < 4; faultSeed++ {
			rng := rand.New(rand.NewSource(faultSeed*131 + int64(sh.pageSize+sh.bufPages)))
			script := make([]byte, 5*120)
			rng.Read(script)
			checkExtentOps(t, sh.pageSize, sh.bufPages, faultSeed, extOpsFromBytes(script, sh.pageSize))
		}
	}

	// One-byte requests, every one flipped: the flipped byte walks over
	// the first two seams, so a flip lands on the last byte of an extent
	// and on the first byte of the next.
	const n = 2*extentSize + 3
	d := NewDisk(1, 5, time.Millisecond)
	d.SetFaultPolicy(NewFaultPolicy(FaultConfig{Seed: 1, BitFlipRate: 1}))
	f := d.Create("x")
	w := f.NewWriter(1)
	for i := 0; i < n; i++ {
		w.Write([]byte{0})
	}
	for i, b := range f.Bytes() {
		if b == 0 || b&(b-1) != 0 {
			t.Fatalf("byte %d = %#x, want exactly one bit flipped in every byte", i, b)
		}
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}

	// A one-frame file holds what was written, not a whole extent.
	small := d.Create("small")
	small.append(make([]byte, 100))
	if c := cap(small.ext[0]); c != 100 {
		t.Fatalf("a 100-byte file pins %d bytes", c)
	}
}

// FuzzFileExtents is TestFileExtents with the op script, the buffer shape
// and the fault seed chosen by the fuzzer.
func FuzzFileExtents(f *testing.F) {
	f.Add(int64(0), uint8(0), []byte{0, 0, 16, 0, 0, 1, 0, 0, 0, 0, 2, 254, 15, 4, 0, 3, 1, 16, 3, 16})
	f.Add(int64(7), uint8(3), bytes.Repeat([]byte{0, 3, 16, 0, 0, 0, 18, 0, 0, 0, 1, 0, 0, 0, 0, 3, 0, 16, 4, 16}, 6))
	f.Add(int64(2), uint8(4), bytes.Repeat([]byte{0, 85, 2, 0, 0, 2, 2, 16, 5, 2}, 20))
	shapes := []struct{ pageSize, bufPages int }{{8192, 1}, {8192, 8}, {8192, 16}, {4096, 3}, {100, 7}, {1, 3}}
	f.Fuzz(func(t *testing.T, faultSeed int64, shape uint8, script []byte) {
		if len(script) > 5*200 {
			script = script[:5*200]
		}
		sh := shapes[int(shape)%len(shapes)]
		checkExtentOps(t, sh.pageSize, sh.bufPages, faultSeed, extOpsFromBytes(script, sh.pageSize))
	})
}
