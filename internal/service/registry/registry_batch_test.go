package registry

import (
	"sync"
	"testing"
	"time"

	parcut "repro"
	"repro/internal/service/store"
)

// TestPutGraphBatchGroupCommits: the registry's batch path commits every
// new graph of the batch through the store's group commit — two fsync
// barriers for the whole batch — and resolves dedup against the registry,
// the disk, and earlier items of the same batch.
func TestPutGraphBatchGroupCommits(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := New(0, st)

	pre := parcut.RandomGraph(10, 20, 9, 1)
	preInfo, _, err := r.PutGraph(pre)
	if err != nil {
		t.Fatal(err)
	}

	gs := []*parcut.Graph{
		parcut.RandomGraph(10, 20, 9, 2),
		pre, // known to the registry already
		parcut.RandomGraph(10, 20, 9, 3),
		parcut.RandomGraph(10, 20, 9, 2), // duplicate of item 0 within the batch
	}
	base := st.Stats().Syncs
	out := r.PutGraphBatch(gs)
	if got := st.Stats().Syncs - base; got != 2 {
		t.Fatalf("batch issued %d fsync barriers, want 2 (group commit)", got)
	}
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("item %d: %v", i, br.Err)
		}
	}
	if out[0].Existed || out[2].Existed {
		t.Fatalf("fresh items reported existed: %+v", out)
	}
	if !out[1].Existed || out[1].Info != preInfo {
		t.Fatalf("pre-registered item = %+v, want existed with info %+v", out[1], preInfo)
	}
	if !out[3].Existed || out[3].Info != out[0].Info {
		t.Fatalf("within-batch duplicate = %+v, want existed with item 0's info", out[3])
	}

	// Every committed graph answers Get and survives in the store.
	for _, br := range out {
		if _, _, err := r.Get(br.Info.ID); err != nil {
			t.Fatalf("Get(%s): %v", br.Info.ID, err)
		}
		if _, ok := st.Info(br.Info.ID); !ok {
			t.Fatalf("store missing %s after batch", br.Info.ID)
		}
	}
	if s := r.Stats(); s.Graphs != 3 || s.Dedups != 2 {
		t.Fatalf("stats = %+v, want 3 graphs, 2 dedups", s)
	}
}

// TestPutGraphOfStoreOnlyGraphReportsExisted: a single upload is a batch
// of one, so a graph the store already holds but the registry index does
// not (written behind the registry's back) reports existed, as a batch
// item does.
func TestPutGraphOfStoreOnlyGraphReportsExisted(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := New(0, st)
	g := parcut.RandomGraph(10, 20, 9, 5)
	id, err := GraphID(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(id, g.Canonical()); err != nil {
		t.Fatal(err)
	}
	info, existed, err := r.PutGraph(g)
	if err != nil || !existed || info.ID != id {
		t.Fatalf("PutGraph = (%+v, %v, %v), want existed %s", info, existed, err, id)
	}
	if s := r.Stats(); s.Graphs != 1 || s.Dedups != 1 {
		t.Fatalf("stats = %+v, want 1 graph, 1 dedup", s)
	}
}

// TestPutGraphBatchMemoryOnly: without a backend the batch inserts
// resident entries directly, and a repeat within the batch reports
// existed.
func TestPutGraphBatchMemoryOnly(t *testing.T) {
	r := New(0, nil)
	g := parcut.RandomGraph(10, 20, 9, 4)
	out := r.PutGraphBatch([]*parcut.Graph{g, g})
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("batch errors: %+v", out)
	}
	if out[0].Existed || !out[1].Existed {
		t.Fatalf("existed flags = %v/%v, want false/true", out[0].Existed, out[1].Existed)
	}
	if s := r.Stats(); s.Graphs != 1 {
		t.Fatalf("stats = %+v, want 1 graph", s)
	}
}

// TestConcurrentBatchesAndSinglePuts: two batches claiming the same ids in
// opposite orders, racing single uploads of those ids, all return; each
// id is created exactly once and reported existed to every other caller.
// The single uploads start in the middle, so each batch may hold ids on
// one side of the id it waits for while the other batch holds the rest:
// a batch that waited before releasing its own ids would deadlock here.
func TestConcurrentBatchesAndSinglePuts(t *testing.T) {
	gs := make([]*parcut.Graph, 8)
	rev := make([]*parcut.Graph, len(gs))
	for i := range gs {
		gs[i] = parcut.RandomGraph(10, 20, 9, int64(100+i))
		rev[len(gs)-1-i] = gs[i]
	}
	for round := 0; round < 50; round++ {
		st, err := store.Open(store.Options{Dir: t.TempDir(), NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		r := New(0, st)
		results := make([][]BatchResult, 3)
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); results[0] = r.PutGraphBatch(gs) }()
		go func() { defer wg.Done(); results[1] = r.PutGraphBatch(rev) }()
		go func() {
			defer wg.Done()
			for _, i := range []int{3, 4, 2, 5, 1, 6, 0, 7} {
				info, existed, err := r.PutGraph(gs[i])
				results[2] = append(results[2], BatchResult{Info: info, Existed: existed, Err: err})
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: concurrent uploads did not return", round)
		}
		created := make(map[string]int)
		for c, rs := range results {
			if len(rs) != len(gs) {
				t.Fatalf("round %d: caller %d got %d results, want %d", round, c, len(rs), len(gs))
			}
			for _, br := range rs {
				if br.Err != nil {
					t.Fatalf("round %d: caller %d: %v", round, c, br.Err)
				}
				if !br.Existed {
					created[br.Info.ID]++
				}
			}
		}
		if len(created) != len(gs) {
			t.Fatalf("round %d: %d ids created, want %d", round, len(created), len(gs))
		}
		for id, n := range created {
			if n != 1 {
				t.Fatalf("round %d: %s created %d times, want once", round, id, n)
			}
		}
		if s := r.Stats(); s.Graphs != len(gs) {
			t.Fatalf("round %d: stats = %+v, want %d graphs", round, s, len(gs))
		}
	}
}
