package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/service/store"
)

// openStore creates a disk store for registry tests.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestEvictedGraphReloadsFromStore: with a backend, LRU eviction drops
// only the resident bytes — the next Get faults the graph back in from
// disk, bit-identical, with no re-upload.
func TestEvictedGraphReloadsFromStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	r := New(112, st) // two 3-vertex 2-edge graphs fit, 56 bytes each
	mk := func(w int64) Info {
		info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, w}, {1, 2, w}})))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	a, b, c := mk(1), mk(2), mk(3) // a is the LRU victim when c arrives
	s := r.Stats()
	if s.Graphs != 3 || s.Resident != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 known, 2 resident, 1 eviction", s)
	}

	// The evicted graph still answers: transparently reloaded from disk.
	g, info, err := r.Get(a.ID)
	if err != nil {
		t.Fatalf("Get(evicted): %v", err)
	}
	if info != a {
		t.Fatalf("info = %+v, want %+v", info, a)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "p cut 3 2\ne 0 1 1\ne 1 2 1\n"; buf.String() != want {
		t.Fatalf("reloaded graph:\n%swant:\n%s", buf.String(), want)
	}
	s = r.Stats()
	if s.Loads != 1 || s.Evictions != 2 { // reloading a evicted the next victim
		t.Fatalf("stats after reload = %+v, want 1 load", s)
	}
	// b and c remain known (one of them on disk only now).
	for _, id := range []string{b.ID, c.ID} {
		if _, _, err := r.Get(id); err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
	}
}

// TestCorruptSegmentSurfacesCleanError: a bit-flipped byte on disk must
// turn into a load error from Get — never a silently different graph.
func TestCorruptSegmentSurfacesCleanError(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := New(64, st)
	info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})))
	if err != nil {
		t.Fatal(err)
	}
	// Evict it by filling the cache, then corrupt the segment under it.
	for w := int64(10); w < 13; w++ {
		if _, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, w}, {1, 2, w}}))); err != nil {
			t.Fatal(err)
		}
	}
	ent, ok := st.Info(info.ID)
	if !ok {
		t.Fatal("store lost the graph")
	}
	seg := filepath.Join(dir, "seg-000001.dat")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[ent.Off+2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o666); err != nil {
		t.Fatal(err)
	}

	_, _, err = r.Get(info.ID)
	if err == nil || !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("Get over corrupt segment: err = %v, want store.ErrCorrupt", err)
	}
	if s := r.Stats(); s.LoadErrors != 1 {
		t.Fatalf("stats = %+v, want 1 load error", s)
	}
}

// TestRestartRebuildsIndexFromStore: a fresh registry over an existing
// store knows every graph immediately (Info without loading) and serves
// them lazily.
func TestRestartRebuildsIndexFromStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := New(0, st)
	info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	r2 := New(0, st2)
	s := r2.Stats()
	if s.Graphs != 1 || s.Resident != 0 {
		t.Fatalf("warm stats = %+v, want 1 known, 0 resident", s)
	}
	g, got, err := r2.Get(info.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if got != info {
		t.Fatalf("info = %+v, want %+v", got, info)
	}
	if g.TotalWeight() != 12 {
		t.Fatalf("total weight = %d, want 12", g.TotalWeight())
	}
	if s := r2.Stats(); s.Loads != 1 || s.Resident != 1 {
		t.Fatalf("stats after lazy load = %+v", s)
	}
}

// TestDeleteRemovesMemoryAndDisk: Delete drops the resident bytes and
// the durable copy; the id is unknown even after a restart.
func TestDeleteRemovesMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	r := New(0, st)
	info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := r.Delete(info.ID)
	if err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if _, _, err := r.Get(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v, want ErrNotFound", err)
	}
	if ok, err := r.Delete(info.ID); err != nil || ok {
		t.Fatalf("second Delete: ok=%v err=%v", ok, err)
	}
	st.Close()

	st2 := openStore(t, dir)
	r2 := New(0, st2)
	if s := r2.Stats(); s.Graphs != 0 {
		t.Fatalf("deleted graph survived restart: %+v", s)
	}
	// Re-uploading after delete works (fresh durable copy).
	info2, existed, err := put(r2, strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})))
	if err != nil || existed || info2.ID != info.ID {
		t.Fatalf("re-upload: info=%+v existed=%v err=%v", info2, existed, err)
	}
}

// TestConcurrentGetsShareOneLoad: many Gets of the same evicted graph
// must coalesce into a single backend load.
func TestConcurrentGetsShareOneLoad(t *testing.T) {
	st := openStore(t, t.TempDir())
	r := New(56, st) // one 3-vertex 2-edge graph resident at a time
	mk := func(w int64) Info {
		info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, w}, {1, 2, w}})))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	a := mk(1)
	mk(2) // evicts a
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := r.Get(a.ID); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := r.Stats(); s.Loads < 1 || s.Loads > 2 {
		// One load, or two if a racing Get started before the first
		// installed the graph; 16 would mean no coalescing at all.
		t.Fatalf("stats = %+v, want coalesced loads", s)
	}
}

// TestDedupAfterEvictionMakesResident: uploading a graph whose entry is
// known but evicted re-installs the bytes from the upload instead of
// leaving a disk-only entry.
func TestDedupAfterEvictionMakesResident(t *testing.T) {
	st := openStore(t, t.TempDir())
	r := New(56, st)
	body := text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})
	info, _, err := put(r, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 9}, {1, 2, 9}}))); err != nil {
		t.Fatal(err) // evicts the first graph
	}
	info2, existed, err := put(r, strings.NewReader(body))
	if err != nil || !existed || info2 != info {
		t.Fatalf("re-upload of evicted graph: info=%+v existed=%v err=%v", info2, existed, err)
	}
	s := r.Stats()
	if s.Loads != 0 {
		t.Fatalf("re-upload should not hit the disk: %+v", s)
	}
	if _, _, err := r.Get(info.ID); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Loads != 0 {
		t.Fatalf("graph should be resident after dedup re-upload: %+v", s)
	}
}

// TestConcurrentPutDeleteGetHammer drives the same id through uploads,
// deletes, and reads from many goroutines. Under -race this exercises the
// writer lock: a Put acknowledged as existed/created must never be
// silently erased by a racing Delete's tombstone (checked at the end: if
// the last settled operation was a Put, the graph must load).
func TestConcurrentPutDeleteGetHammer(t *testing.T) {
	st := openStore(t, t.TempDir())
	r := New(0, st)
	body := func() *strings.Reader {
		return strings.NewReader(text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}}))
	}
	info, _, err := put(r, body())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, _, err := put(r, body()); err != nil {
					t.Errorf("Put: %v", err)
				}
				_, _, _ = r.Get(info.ID)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := r.Delete(info.ID); err != nil {
					t.Errorf("Delete: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	// Settle to a known state and verify both levels agree.
	if _, _, err := put(r, body()); err != nil {
		t.Fatal(err)
	}
	g, _, err := r.Get(info.ID)
	if err != nil || g.TotalWeight() != 12 {
		t.Fatalf("final Get: g=%v err=%v", g, err)
	}
	if _, err := st.Get(info.ID); err != nil {
		t.Fatalf("store lost an acknowledged Put: %v", err)
	}
}
