// Package registry is the service layer's content-addressed graph store:
// upload a graph once, solve it many times. Graphs are identified by the
// SHA-256 of their canonical serialization — parcut.Graph.Canonical
// (endpoints ordered within each edge, edges sorted by (u, v, w))
// re-emitted in the package's DIMACS-like text format — so the same graph
// uploaded twice deduplicates to one entry even with different comments,
// whitespace, permuted edge order, swapped edge endpoints, or via a
// different input encoding. The canonical form is also what is stored, so
// every solve of a given ID sees the same edge order no matter which
// permutation was uploaded first.
//
// Memory is bounded: resident graphs are evicted least-recently-used once
// the total bytes they are charged exceed the configured capacity. With a
// Backend attached (a disk store), the LRU becomes a cache over the
// durable copy: every upload, single or batched, is one group commit to
// the backend, and its entry is created only after that commit, so an
// uncommitted graph is never visible. One writer lock serializes the
// backend writes, upload commits and deletes; the registry lock is never
// held across one, so no read waits on an upload's or a delete's disk
// I/O.
// Eviction drops only the in-memory bytes (the entry stays known and its
// Info still answers), and Get faults evicted graphs back in
// transparently — concurrent Gets of the same evicted graph share one
// load. Delete removes both the resident bytes and the backend copy.
package registry

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	parcut "repro"
)

// The eviction budget charges each graph for its edges and its vertices:
// edgeBytes for one stored edge (two int32 endpoints and an int64
// weight), vertexBytes for one vertex (the int64 weighted degree every
// solve allocates). Without the vertex charge an upload of 2^30 vertices
// and no edges would cost nothing.
const (
	edgeBytes   = 16
	vertexBytes = 8
)

// graphBytes is what a graph of n vertices and m edges is charged.
func graphBytes(n, m int) int64 { return int64(n)*vertexBytes + int64(m)*edgeBytes }

// IDPrefix tags registry identifiers so they are self-describing in URLs
// and logs.
const IDPrefix = "sha256:"

// ErrNotFound reports a Get or Delete of an unknown graph ID.
var ErrNotFound = errors.New("registry: graph not found")

// ErrStore tags errors that originate in the backend store rather than
// in the caller's input, so the API layer can answer 5xx instead of 4xx.
// The backend's own sentinel (e.g. store.ErrDiskFull) stays matchable
// through errors.Is.
var ErrStore = errors.New("registry: backend store failure")

// Backend is a durable second level under the in-memory LRU. Implemented
// by internal/service/store; all methods must be safe for concurrent use.
type Backend interface {
	// PutMany durably stores each graph's canonical form under its id as
	// one group commit: either every new graph is committed or none is.
	// The result aligns with ids; an id the backend already holds, or one
	// repeated in the batch, reports existed=true and writes nothing.
	PutMany(ids []string, gs []*parcut.Graph) (existed []bool, err error)
	// Get loads and integrity-checks the graph stored under id.
	Get(id string) (*parcut.Graph, error)
	// Delete removes id, reporting whether it was present.
	Delete(id string) (bool, error)
	// Walk calls fn for every stored graph so a restart can rebuild the
	// registry index without loading graph bytes.
	Walk(fn func(id string, n, m int))
}

// Info describes a stored graph.
type Info struct {
	// ID is "sha256:" + hex digest of the canonical serialization.
	ID string
	// N and M are the vertex and edge counts.
	N, M int
	// Bytes is the entry's cost counted against the capacity: 8 bytes per
	// vertex plus 16 per edge.
	Bytes int64
}

// Stats is a snapshot of the registry's counters.
type Stats struct {
	// Graphs counts every known graph, resident or not; Resident the
	// subset currently holding their edges in memory (without a backend
	// the two are equal). Bytes is the resident graphs' total cost.
	Graphs, Resident int
	Bytes            int64
	// Capacity is the configured byte budget.
	Capacity int64
	// Hits counts Get calls that found their graph (including ones served
	// by a backend load); Misses the rest.
	Hits, Misses int64
	// Dedups counts uploaded graphs that matched an existing entry.
	Dedups int64
	// Evictions counts entries whose resident bytes were dropped to make
	// room.
	Evictions int64
	// Loads counts graphs faulted back in from the backend; LoadErrors
	// the backend loads that failed (I/O or integrity).
	Loads, LoadErrors int64
}

// entry is one known graph. g is nil while the graph is not resident
// (evicted to the backend); loading is non-nil while a backend load is in
// flight, and concurrent Gets wait on it instead of loading twice.
type entry struct {
	info    Info
	g       *parcut.Graph
	elem    *list.Element // position in the LRU list; nil when not resident
	loading chan struct{}
}

// Registry is a bounded, concurrency-safe graph store. The zero value is
// not usable; call New.
type Registry struct {
	// wmu serializes backend writes: an upload's commit and the creation of
	// its entries, and a delete's index removal and tombstone. It is taken
	// before mu, never while holding it.
	wmu      sync.Mutex
	mu       sync.Mutex
	capacity int64
	bytes    int64
	entries  map[string]*entry
	lru      *list.List // front = most recently used; resident entries only
	backend  Backend    // nil = memory-only

	hits, misses, dedups, evictions atomic.Int64
	loads, loadErrs                 atomic.Int64
}

// New returns a registry that holds at most capacity bytes of graphs (8
// per vertex plus 16 per edge) in memory. A non-positive capacity means
// unbounded. A non-nil backend makes the registry a cache over that
// durable store: its existing graphs are indexed immediately (lazily
// loaded on first Get), writes go through to it, and eviction keeps the
// disk copy.
func New(capacity int64, backend Backend) *Registry {
	r := &Registry{
		capacity: capacity,
		entries:  make(map[string]*entry),
		lru:      list.New(),
		backend:  backend,
	}
	if backend != nil {
		backend.Walk(func(id string, n, m int) {
			r.entries[id] = &entry{info: Info{ID: id, N: n, M: m, Bytes: graphBytes(n, m)}}
		})
	}
	return r
}

// PutGraph stores an already-parsed graph, deduplicating by content hash:
// a batch of one (see PutGraphBatch). The stored copy is the graph's
// canonical form, not the caller's edge order, so results for an ID are
// reproducible across permuted uploads. With a backend, the graph is
// durable before PutGraph returns.
func (r *Registry) PutGraph(g *parcut.Graph) (Info, bool, error) {
	br := r.PutGraphBatch([]*parcut.Graph{g})[0]
	return br.Info, br.Existed, br.Err
}

// BatchResult is one item's outcome of PutGraphBatch, aligned with the
// input slice.
type BatchResult struct {
	Info    Info
	Existed bool
	Err     error
}

// GraphID computes the content-addressed registry ID g would be stored
// under — "sha256:" + hex digest of the canonical serialization — without
// storing anything. The cluster router uses it to place a graph on its
// owning node before (and instead of) a local PutGraph; the ID it
// returns is bit-for-bit the one the owning node's registry will assign,
// because both come from canonicalID.
func GraphID(g *parcut.Graph) (string, error) {
	_, id, err := canonicalID(g)
	return id, err
}

// canonicalID canonicalizes g and hashes the canonical serialization as a
// stream; materializing it would transiently cost hundreds of MB for
// graphs near the budget.
func canonicalID(g *parcut.Graph) (*parcut.Graph, string, error) {
	g = g.Canonical()
	h := sha256.New()
	if err := g.Write(h); err != nil {
		return nil, "", fmt.Errorf("registry: canonicalize: %v", err)
	}
	return g, IDPrefix + hex.EncodeToString(h.Sum(nil)), nil
}

// hashGraph canonicalizes g and computes its content-addressed Info.
func (r *Registry) hashGraph(g *parcut.Graph) (*parcut.Graph, Info, error) {
	g, id, err := canonicalID(g)
	if err != nil {
		return nil, Info{}, err
	}
	info := Info{ID: id, N: g.N(), M: g.M(), Bytes: graphBytes(g.N(), g.M())}
	if r.capacity > 0 && info.Bytes > r.capacity {
		return nil, Info{}, fmt.Errorf("registry: graph of %d vertices and %d edges needs %d bytes, capacity is %d",
			info.N, info.M, info.Bytes, r.capacity)
	}
	return g, info, nil
}

// PutGraphBatch stores many graphs at once, deduplicating by content
// hash. With a backend, every new graph of the batch is made durable by
// one group commit — two fsync barriers in total — before its entry is
// created; a failed commit fails every new item (nothing was committed).
// Items otherwise succeed or fail independently. Duplicates — against the
// registry, the backend, or earlier items of the same batch — report
// Existed. A batch whose every graph the registry holds never waits for
// another upload's commit.
func (r *Registry) PutGraphBatch(gs []*parcut.Graph) []BatchResult {
	out := make([]BatchResult, len(gs))
	canon := make([]*parcut.Graph, len(gs))
	for i, g := range gs {
		canon[i], out[i].Info, out[i].Err = r.hashGraph(g)
	}
	var fresh []int // items whose id the registry did not hold
	r.mu.Lock()
	for i := range gs {
		switch {
		case out[i].Err != nil || r.dedupLocked(&out[i], canon[i]):
			// Settled: invalid, or held already.
		case r.backend == nil:
			r.createLocked(out[i].Info, canon[i])
		default:
			fresh = append(fresh, i)
		}
	}
	r.mu.Unlock()
	if len(fresh) == 0 {
		return out
	}

	// The commit runs outside mu, so reads never wait on its segment
	// writes and fsyncs, and under wmu, so no delete falls between the
	// commit and the entries it makes visible.
	r.wmu.Lock()
	defer r.wmu.Unlock()
	ids := make([]string, len(fresh))
	graphs := make([]*parcut.Graph, len(fresh))
	for k, i := range fresh {
		ids[k], graphs[k] = out[i].Info.ID, canon[i]
	}
	existed, err := r.backend.PutMany(ids, graphs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, i := range fresh {
		switch {
		case r.dedupLocked(&out[i], canon[i]):
			// An earlier copy in this batch, or an upload that held wmu
			// first, created the entry.
		case err != nil:
			out[i] = BatchResult{Err: fmt.Errorf("store %s: %w", ids[k], errors.Join(ErrStore, err))}
		default:
			// existed: the backend held the graph without an entry (e.g.
			// written behind this registry's back), a dedup to the caller.
			if existed[k] {
				out[i].Existed = true
				r.dedups.Add(1)
			}
			r.createLocked(out[i].Info, canon[i])
		}
	}
	return out
}

// dedupLocked reports whether the registry already holds br's graph,
// marking br Existed and the entry most recently used when it does. A
// known but evicted entry keeps g, the bytes a future Get would otherwise
// fault in from disk. Caller holds r.mu.
func (r *Registry) dedupLocked(br *BatchResult, g *parcut.Graph) bool {
	e, ok := r.entries[br.Info.ID]
	if !ok {
		return false
	}
	r.dedups.Add(1)
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
	} else {
		r.makeResidentLocked(e, g)
	}
	br.Info, br.Existed = e.info, true
	return true
}

// createLocked adds a resident entry for g. Caller holds r.mu.
func (r *Registry) createLocked(info Info, g *parcut.Graph) {
	e := &entry{info: info}
	r.entries[info.ID] = e
	r.makeResidentLocked(e, g)
}

// makeResidentLocked installs g as e's resident bytes and charges the
// budget. Caller holds r.mu; e must not already be resident.
func (r *Registry) makeResidentLocked(e *entry, g *parcut.Graph) {
	e.g = g
	e.elem = r.lru.PushFront(e.info.ID)
	r.bytes += e.info.Bytes
	r.evictLocked()
}

// evictLocked drops least-recently-used resident graphs until the budget
// holds. With a backend the entry survives — only the bytes leave memory;
// without one the entry is gone for good. The newest entry is never
// evicted (hashGraph rejects oversized graphs up front, so the loop always
// terminates with at least one entry left).
func (r *Registry) evictLocked() {
	if r.capacity <= 0 {
		return
	}
	for r.bytes > r.capacity && r.lru.Len() > 1 {
		back := r.lru.Back()
		id := back.Value.(string)
		e := r.entries[id]
		r.lru.Remove(back)
		e.elem = nil
		e.g = nil
		if r.backend == nil {
			delete(r.entries, id)
		}
		r.bytes -= e.info.Bytes
		r.evictions.Add(1)
	}
}

// Get returns the graph stored under id, marking it most recently used.
// A known-but-evicted graph is loaded back from the backend (outside the
// registry lock; concurrent Gets of the same id share one load). Solvers
// keep their own reference, so a graph evicted mid-solve stays alive
// until the job finishes. The error is ErrNotFound for unknown ids and
// for one a Delete dropped while its load ran, or else the backend's load
// error (e.g. a CRC mismatch) verbatim-wrapped.
func (r *Registry) Get(id string) (*parcut.Graph, Info, error) {
	r.mu.Lock()
	var e *entry
	for {
		var ok bool
		e, ok = r.entries[id]
		if !ok {
			r.misses.Add(1)
			r.mu.Unlock()
			return nil, Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		if e.g != nil {
			if e.elem != nil {
				r.lru.MoveToFront(e.elem)
			}
			r.hits.Add(1)
			g, info := e.g, e.info
			r.mu.Unlock()
			return g, info, nil
		}
		if e.loading == nil {
			break // this goroutine performs the load
		}
		ch := e.loading
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	ch := make(chan struct{})
	e.loading = ch
	info := e.info
	r.mu.Unlock()

	g, err := r.backend.Get(id)

	r.mu.Lock()
	defer r.mu.Unlock()
	e.loading = nil
	close(ch)
	current := r.entries[id] == e
	switch {
	case err != nil && !current:
		// A Delete dropped the entry while the load ran: the graph is gone,
		// not broken.
		r.misses.Add(1)
		return nil, Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	case err != nil:
		r.loadErrs.Add(1)
		return nil, Info{}, fmt.Errorf("registry: load %s: %w", id, err)
	}
	r.loads.Add(1)
	r.hits.Add(1)
	// A concurrent upload may have made the entry resident already. The
	// loaded graph is returned either way, also after a concurrent Delete:
	// the caller's lookup was valid.
	if current && e.g == nil {
		r.makeResidentLocked(e, g)
	}
	return g, info, nil
}

// Lookup returns the Info for a known graph without loading its bytes:
// the index keeps N/M/Bytes for evicted entries precisely so metadata
// reads never fault multi-MB graphs back into the LRU.
func (r *Registry) Lookup(id string) (Info, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return Info{}, false
	}
	return e.info, true
}

// Delete removes the graph from memory and, when a backend is attached,
// from disk. It reports whether the graph was known. In-flight solves
// holding the graph pointer are unaffected; a load of the graph in flight
// answers ErrNotFound unless it already read the graph.
func (r *Registry) Delete(id string) (bool, error) {
	// Under wmu no upload commits between the index removal and the
	// tombstone: one that did could find the store's still-present copy
	// (existed, nothing written) and acknowledge as durable an upload the
	// tombstone then erases.
	r.wmu.Lock()
	defer r.wmu.Unlock()
	r.mu.Lock()
	e, ok := r.entries[id]
	if ok {
		if e.elem != nil {
			r.lru.Remove(e.elem)
			r.bytes -= e.info.Bytes
		}
		delete(r.entries, id)
	}
	r.mu.Unlock()
	if r.backend == nil {
		return ok, nil
	}
	onDisk, err := r.backend.Delete(id)
	if err != nil {
		return ok || onDisk, fmt.Errorf("registry: delete %s: %w", id, err)
	}
	return ok || onDisk, nil
}

// Stats returns a snapshot of the registry's state and counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	graphs, resident, bytes := len(r.entries), r.lru.Len(), r.bytes
	r.mu.Unlock()
	return Stats{
		Graphs:     graphs,
		Resident:   resident,
		Bytes:      bytes,
		Capacity:   r.capacity,
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Dedups:     r.dedups.Load(),
		Evictions:  r.evictions.Load(),
		Loads:      r.loads.Load(),
		LoadErrors: r.loadErrs.Load(),
	}
}
