// Temp-file lifecycle. Every intermediate file a join creates —
// partitions, level-record runs, sort runs, result spools — must be removed
// when the join finishes, whether it finishes by success, by error or by
// cancellation. Scattered defers almost achieve that, but "almost" is
// exactly the failure mode resource governance exists to close: a file
// leaked per aborted join is a disk slowly filling under production
// traffic. A Registry makes the guarantee structural: joins create temp
// files only through their registry and sweep it once on the way out.
package diskio

import "sync"

// Registry tracks the temporary files created on behalf of one join.
// Create registers, Remove unregisters and deletes, and Sweep deletes
// whatever is still registered — the single cleanup point a join defers
// so that success, error and cancellation paths all converge on zero
// files left behind. Methods are safe for concurrent use (parallel PBSM
// workers share their join's registry).
type Registry struct {
	d    *Disk
	mu   sync.Mutex
	live map[string]struct{}
}

// NewRegistry returns an empty registry for temp files on d.
func (d *Disk) NewRegistry() *Registry {
	return &Registry{d: d, live: make(map[string]struct{})}
}

// Create makes a new uniquely-named temp file and registers it.
func (r *Registry) Create() *File {
	f := r.d.Create("")
	r.mu.Lock()
	r.live[f.Name()] = struct{}{}
	r.mu.Unlock()
	return f
}

// Remove deletes a file and unregisters it. Nil files are ignored, so
// error paths can call it unconditionally. Removal never consults the
// cancellation hook: cleanup must succeed even mid-abort.
func (r *Registry) Remove(f *File) {
	if f == nil {
		return
	}
	r.mu.Lock()
	delete(r.live, f.Name())
	r.mu.Unlock()
	r.d.Remove(f.Name())
}

// Live returns how many registered files have not been removed yet.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Sweep removes every still-registered file and returns how many it
// removed. Idempotent; a join defers it once so that every exit path —
// success, structured failure, cancellation, even a recovered panic —
// leaves zero temp files on the disk.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	names := make([]string, 0, len(r.live))
	for n := range r.live {
		names = append(names, n)
	}
	r.live = make(map[string]struct{})
	r.mu.Unlock()
	for _, n := range names {
		r.d.Remove(n)
	}
	return len(names)
}
