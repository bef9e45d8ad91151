package registry

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	parcut "repro"
)

// gate parks callers of wait until release is closed; arrived is closed
// once the first of them is parked.
type gate struct {
	arrived, release chan struct{}
	once             sync.Once
}

func newGate() *gate {
	return &gate{arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) wait() {
	if g == nil {
		return
	}
	g.once.Do(func() {
		close(g.arrived)
		<-g.release
	})
}

// lockingBackend is an in-memory Backend that, like store.Store, holds one
// mutex across PutMany and Delete. A PutMany parks at commit while holding
// that mutex, a Get at load before taking it; a test arms either gate
// before it starts the goroutines that reach it.
type lockingBackend struct {
	mu           sync.Mutex
	graphs       map[string]*parcut.Graph
	commit, load *gate
}

var errNotStored = errors.New("lockingBackend: not stored")

func (b *lockingBackend) PutMany(ids []string, gs []*parcut.Graph) ([]bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.commit.wait()
	existed := make([]bool, len(ids))
	for i, id := range ids {
		if _, ok := b.graphs[id]; ok {
			existed[i] = true
			continue
		}
		b.graphs[id] = gs[i]
	}
	return existed, nil
}

func (b *lockingBackend) Get(id string) (*parcut.Graph, error) {
	b.load.wait()
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.graphs[id]; ok {
		return g, nil
	}
	return nil, errNotStored
}

func (b *lockingBackend) Delete(id string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.graphs[id]
	delete(b.graphs, id)
	return ok, nil
}

func (b *lockingBackend) Walk(func(id string, n, m int)) {}

// waitMutexIn returns once a goroutine with fn on its stack is parked on a
// sync.Mutex.
func waitMutexIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine in %s waits on a mutex", fn)
}

// within fails the test unless f returns within 10 s. f must not call t.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestCommitKeepsReadsLive: while an upload's commit is parked in the
// backend, Get and Lookup of a resident graph and a re-upload of a graph
// the registry holds return at once, also with a Delete of another graph
// waiting. The committing graph is not found until its commit returns; a
// duplicate upload racing it then reports Existed.
func TestCommitKeepsReadsLive(t *testing.T) {
	b := &lockingBackend{graphs: make(map[string]*parcut.Graph)}
	r := New(0, b)
	ga := parcut.RandomGraph(10, 20, 9, 1)
	a, _, err := r.PutGraph(ga)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := r.PutGraph(parcut.RandomGraph(10, 20, 9, 2))
	if err != nil {
		t.Fatal(err)
	}
	gc := parcut.RandomGraph(10, 20, 9, 3)
	cID, err := GraphID(gc)
	if err != nil {
		t.Fatal(err)
	}

	b.commit = newGate()
	upload := func(g *parcut.Graph) chan BatchResult {
		ch := make(chan BatchResult, 1)
		go func() {
			info, existed, err := r.PutGraph(g)
			ch <- BatchResult{Info: info, Existed: existed, Err: err}
		}()
		return ch
	}
	committed := upload(gc)
	<-b.commit.arrived
	deleted := make(chan error, 1)
	go func() {
		_, err := r.Delete(other.ID)
		deleted <- err
	}()
	waitMutexIn(t, "(*Registry).Delete")

	var (
		getErr, cGetErr error
		found, cFound   bool
		again           BatchResult
	)
	within(t, "reads and a re-upload during a commit with a Delete waiting", func() {
		_, _, getErr = r.Get(a.ID)
		_, found = r.Lookup(a.ID)
		_, _, cGetErr = r.Get(cID)
		_, cFound = r.Lookup(cID)
		again.Info, again.Existed, again.Err = r.PutGraph(ga)
	})
	if getErr != nil || !found {
		t.Fatalf("resident graph during a commit: Get error %v, Lookup found %v", getErr, found)
	}
	if !errors.Is(cGetErr, ErrNotFound) || cFound {
		t.Fatalf("committing graph: Get error %v, Lookup found %v, want not found", cGetErr, cFound)
	}
	if again.Err != nil || !again.Existed || again.Info != a {
		t.Fatalf("re-upload during a commit = %+v, want existed %+v", again, a)
	}

	dup := upload(gc)
	waitMutexIn(t, "(*Registry).PutGraphBatch")
	close(b.commit.release)
	if br := <-committed; br.Err != nil || br.Existed || br.Info.ID != cID {
		t.Fatalf("parked upload = %+v, want created %s", br, cID)
	}
	if br := <-dup; br.Err != nil || !br.Existed || br.Info.ID != cID {
		t.Fatalf("duplicate upload = %+v, want existed %s", br, cID)
	}
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Get(cID); err != nil {
		t.Fatalf("Get after the commit: %v", err)
	}
	if _, _, err := r.Get(other.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the deleted graph: %v, want ErrNotFound", err)
	}
	if s := r.Stats(); s.Graphs != 2 {
		t.Fatalf("stats = %+v, want 2 graphs", s)
	}
}

// TestDeleteDuringLoadIsNotFound: a Delete does not wait for a load of its
// graph in flight, and that load then answers ErrNotFound (the API's 404),
// not a load error (its 502).
func TestDeleteDuringLoadIsNotFound(t *testing.T) {
	b := &lockingBackend{graphs: make(map[string]*parcut.Graph)}
	r := New(56, b) // one 3-vertex 2-edge graph resident at a time
	a, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 9}, {1, 2, 9}}))); err != nil {
		t.Fatal(err) // evicts a
	}
	b.load = newGate()
	loaded := make(chan error, 1)
	go func() {
		_, _, err := r.Get(a.ID)
		loaded <- err
	}()
	<-b.load.arrived
	var ok bool
	within(t, "Delete during a load of its graph", func() { ok, err = r.Delete(a.ID) })
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	close(b.load.release)
	if err := <-loaded; !errors.Is(err, ErrNotFound) {
		t.Fatalf("load of a deleted graph: %v, want ErrNotFound", err)
	}
	if s := r.Stats(); s.LoadErrors != 0 {
		t.Fatalf("stats = %+v, want no load errors", s)
	}
}
