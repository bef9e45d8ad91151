package registry

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	parcut "repro"
)

// text builds a graph upload body in the repository's format.
func text(n int, edges [][3]int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cut %d %d\n", n, len(edges))
	for _, e := range edges {
		fmt.Fprintf(&b, "e %d %d %d\n", e[0], e[1], e[2])
	}
	return b.String()
}

// put parses a text-format upload and stores it, as the upload handler
// does.
func put(r *Registry, src io.Reader) (Info, bool, error) {
	g, err := parcut.ReadGraph(src)
	if err != nil {
		return Info{}, false, err
	}
	return r.PutGraph(g)
}

func TestPutGetRoundTrip(t *testing.T) {
	r := New(0, nil)
	in := text(3, [][3]int64{{0, 1, 5}, {1, 2, 7}})
	info, existed, err := put(r, strings.NewReader(in))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if existed {
		t.Fatal("fresh Put reported existed")
	}
	if !strings.HasPrefix(info.ID, IDPrefix) {
		t.Fatalf("ID %q lacks prefix %q", info.ID, IDPrefix)
	}
	if info.N != 3 || info.M != 2 || info.Bytes != 3*8+2*16 {
		t.Fatalf("info = %+v", info)
	}
	g, got, err := r.Get(info.ID)
	if err != nil || got.ID != info.ID {
		t.Fatalf("Get: err=%v info=%+v", err, got)
	}
	if g.TotalWeight() != 12 {
		t.Fatalf("stored graph total weight = %d, want 12", g.TotalWeight())
	}
}

func TestDedupAcrossFormattingDifferences(t *testing.T) {
	r := New(0, nil)
	a := "p cut 3 2\ne 0 1 5\ne 1 2 7\n"
	b := "c a comment\np cut 3 2\n\ne 0 1 5\ne 1 2 7\n"
	ia, _, err := put(r, strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	ib, existed, err := put(r, strings.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !existed || ia.ID != ib.ID {
		t.Fatalf("want dedup: existed=%v ids %q vs %q", existed, ia.ID, ib.ID)
	}
	if s := r.Stats(); s.Graphs != 1 || s.Dedups != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDistinctGraphsGetDistinctIDs(t *testing.T) {
	r := New(0, nil)
	ia, _, _ := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 5}})))
	ib, _, _ := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 6}})))
	if ia.ID == ib.ID {
		t.Fatalf("different graphs share ID %q", ia.ID)
	}
}

func TestLRUEvictionByEdgeBytes(t *testing.T) {
	// Each 3-vertex 2-edge graph costs 3·8 + 2·16 = 56 bytes; capacity 112
	// holds exactly two.
	r := New(112, nil)
	mk := func(w int64) Info {
		info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, w}, {1, 2, w}})))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	a, b := mk(1), mk(2)
	// Touch a so b becomes the eviction victim.
	if _, _, err := r.Get(a.ID); err != nil {
		t.Fatal("a missing before eviction")
	}
	c := mk(3)
	if _, _, err := r.Get(b.ID); err == nil {
		t.Fatal("b survived eviction")
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, _, err := r.Get(id); err != nil {
			t.Fatalf("%s evicted, want kept: %v", id, err)
		}
	}
	s := r.Stats()
	if s.Graphs != 2 || s.Bytes != 112 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPutRejectsOversizedGraph(t *testing.T) {
	r := New(32, nil) // 2 vertices and 1 edge fit exactly
	if _, _, err := put(r, strings.NewReader(text(3, [][3]int64{{0, 1, 1}, {1, 2, 1}}))); err == nil {
		t.Fatal("oversized Put succeeded")
	}
	// Vertices are charged too: 5 vertices and no edges need 40 bytes.
	if _, _, err := put(r, strings.NewReader(text(5, nil))); err == nil {
		t.Fatal("Put of 5 edgeless vertices succeeded")
	}
	if _, _, err := put(r, strings.NewReader(text(2, [][3]int64{{0, 1, 1}}))); err != nil {
		t.Fatalf("exact-fit Put failed: %v", err)
	}
}

func TestPutRejectsMalformedInput(t *testing.T) {
	r := New(0, nil)
	for _, bad := range []string{"", "e 0 1 5\n", "p cut 2 1\ne 0 5 1\n"} {
		if _, _, err := put(r, strings.NewReader(bad)); err == nil {
			t.Errorf("Put(%q) succeeded, want error", bad)
		}
	}
}

func TestPutGraphMatchesTextPut(t *testing.T) {
	r := New(0, nil)
	g := parcut.NewGraph(3)
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ia, _, err := r.PutGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	ib, existed, err := put(r, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !existed || ia.ID != ib.ID {
		t.Fatalf("PutGraph and Put disagree: %q vs %q (existed=%v)", ia.ID, ib.ID, existed)
	}
}

// TestDedupAcrossEdgePermutations: the package promises content dedup
// regardless of input encoding, so the same graph with permuted edge
// order — or swapped edge endpoints — must hash to the same ID.
func TestDedupAcrossEdgePermutations(t *testing.T) {
	r := New(0, nil)
	a := text(4, [][3]int64{{0, 1, 3}, {1, 2, 1}, {2, 3, 4}, {3, 0, 2}})
	b := text(4, [][3]int64{{2, 3, 4}, {3, 0, 2}, {0, 1, 3}, {1, 2, 1}}) // permuted
	c := text(4, [][3]int64{{1, 0, 3}, {2, 1, 1}, {3, 2, 4}, {0, 3, 2}}) // endpoints swapped
	ia, _, err := put(r, strings.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{b, c} {
		info, existed, err := put(r, strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if !existed || info.ID != ia.ID {
			t.Fatalf("permuted upload got id %q existed=%v, want dedup to %q", info.ID, existed, ia.ID)
		}
	}
	if s := r.Stats(); s.Graphs != 1 || s.Dedups != 2 {
		t.Fatalf("stats = %+v, want 1 graph, 2 dedups", s)
	}
}

// TestStoredGraphIsCanonical: whichever permutation arrives first, the
// stored graph (and hence every solve of this ID) sees canonical edge
// order, so results are reproducible across upload orders.
func TestStoredGraphIsCanonical(t *testing.T) {
	r := New(0, nil)
	info, _, err := put(r, strings.NewReader(text(3, [][3]int64{{2, 1, 7}, {1, 0, 5}})))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := r.Get(info.ID)
	if err != nil {
		t.Fatal("stored graph missing")
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "p cut 3 2\ne 0 1 5\ne 1 2 7\n"
	if buf.String() != want {
		t.Fatalf("stored serialization:\n%scanonical form:\n%s", buf.String(), want)
	}
}
