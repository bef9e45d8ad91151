package graph_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/graph"
	"repro/internal/graph/gen"
)

// readFmt is the fmt.Sscanf reader that Read replaced, kept verbatim as
// the oracle of FuzzReadMatchesFmt.
func readFmt(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var g *graph.Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "c") {
			continue
		}
		switch text[0] {
		case 'p':
			var kind string
			var n, m int
			if _, err := fmt.Sscanf(text, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad problem line: %v", line, err)
			}
			if n < 0 || m < 0 || n > 1<<30 {
				return nil, fmt.Errorf("graph: line %d: invalid sizes n=%d m=%d", line, n, m)
			}
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", line)
			}
			g = graph.New(n)
		case 'e', 'a':
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", line)
			}
			var u, v int
			var w int64
			if _, err := fmt.Sscanf(text[1:], "%d %d %d", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge: %v", line, err)
			}
			if err := g.AddEdge(u, v, w); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, text[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	return g, nil
}

// writeFmt is the fmt.Fprintf writer that Write replaced, kept as the
// oracle of TestWriteMatchesFprintf.
func writeFmt(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cut %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "e %d %d %d\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// edgeLine is the edge-line grammar Read documents, written independently
// of its scanner.
var edgeLine = regexp.MustCompile(`^[ea][ \t]+[+-]?[0-9]+[ \t]+[+-]?[0-9]+[ \t]+[+-]?[0-9]+$`)

// sameGraph reports whether a and b have the same n and the same edges in
// the same order.
func sameGraph(a, b *graph.Graph) bool {
	return a.N() == b.N() && slices.Equal(a.Edges(), b.Edges())
}

// FuzzReadMatchesFmt checks Read against the fmt.Sscanf reader it
// replaced. Whatever Read accepts, the old reader reads as the same graph,
// and it survives a Write -> Read round trip. Whatever only the old
// reader accepts has an edge line outside Read's grammar: the lines whose
// data Sscanf silently changed (a fourth field dropped, a number cut at
// its first non-digit, a record letter glued to its first number) and
// separators other than spaces and tabs.
func FuzzReadMatchesFmt(f *testing.F) {
	for _, s := range []string{
		"p cut 3 2\ne 0 1 5\ne 1 2 7\n",
		"c comment\np cut 2 1\na 0 1 4\n",
		"p cut 2 1\ne 0 1 5 6\n",
		"p cut 2 1\ne 0 1 5junk\n",
		"p cut 2 1\ne 0 1 1_000\n",
		"p cut 2 1\ne0 1 5\n",
		"p cut 2 1\ne\t0\t1\t5\n",
		"p cut 2 1\r\ne 0 1 5\r\n",
		"p cut 2 1\ne 00 0001 0005\n",
		"p cut 2 1\ne 0 1 +5\n",
		"p cut 2 1\ne 0 1 -5\n",
		"p cut 2 1\ne 0 1 9223372036854775807\n",
		"p cut 2 1\ne 0 1 9223372036854775808\n",
		"p cut 2 1\ne 0 -9223372036854775808 1\n",
		"p cut 2 1\ne 0 1 99999999999999999999999\n",
		"p cut 2 1\ne 0 1\v5\n",
		"p cut 2 1\ne 0 1 5 \n",
		"p cut 2 1\ne 0 1 +\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := graph.Read(strings.NewReader(input))
		old, oldErr := readFmt(strings.NewReader(input))
		if err == nil {
			if oldErr != nil {
				t.Fatalf("Read accepts what the old reader rejects: %v", oldErr)
			}
			if !sameGraph(g, old) {
				t.Fatalf("Read and the old reader disagree: n %d vs %d, edges %v vs %v", g.N(), old.N(), g.Edges(), old.Edges())
			}
			var buf bytes.Buffer
			if err := graph.Write(&buf, g); err != nil {
				t.Fatalf("Write: %v", err)
			}
			back, err := graph.Read(&buf)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if !sameGraph(back, g) {
				t.Fatal("round trip changed the graph")
			}
			return
		}
		if oldErr != nil {
			return
		}
		for _, l := range strings.Split(input, "\n") {
			l = strings.TrimSpace(l)
			if l != "" && (l[0] == 'e' || l[0] == 'a') && !edgeLine.MatchString(l) {
				return
			}
		}
		t.Fatalf("only the old reader accepts an input whose edge lines all fit the grammar: %v", err)
	})
}

// TestReadGrammar pins what Read accepts and, with the lines the old
// reader misread, what it now rejects.
func TestReadGrammar(t *testing.T) {
	for _, c := range []struct {
		in    string
		n     int
		edges []graph.Edge
	}{
		{"p cut 3 2\ne 0 1 5\na 1 2 7\n", 3, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7}}},
		{"p cut 2 1\ne\t0 \t1\t\t+5\n", 2, []graph.Edge{{U: 0, V: 1, W: 5}}},
		{"c x\r\np cut 2 1\r\n  e 0 1 5  \r\n\r\n", 2, []graph.Edge{{U: 0, V: 1, W: 5}}},
		{"p cut 2 1\ne 000 -0 0000000000000000000007\n", 2, []graph.Edge{{U: 0, V: 0, W: 7}}},
		{"p cut 2 1\ne 1 0 1099511627776", 2, []graph.Edge{{U: 1, V: 0, W: graph.MaxTotalWeight}}},
		{"p cut 5 0\n", 5, nil},
	} {
		g, err := graph.Read(strings.NewReader(c.in))
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if g.N() != c.n || !slices.Equal(g.Edges(), c.edges) {
			t.Errorf("%q: n=%d edges %v, want n=%d %v", c.in, g.N(), g.Edges(), c.n, c.edges)
		}
	}
	reject := map[string]string{
		"p cut 2 1\ne 0 1 5 6\n":                   "line 2: bad edge",
		"p cut 2 1\ne 0 1 5junk\n":                 "line 2: bad edge",
		"p cut 2 1\ne 0 1 1_000\n":                 "line 2: bad edge",
		"p cut 2 1\ne0 1 5\n":                      "line 2: bad edge",
		"p cut 2 1\ne 0 1\n":                       "line 2: bad edge",
		"p cut 2 1\ne 0 1 +\n":                     "line 2: bad edge",
		"p cut 2 1\ne 0 1\v5\n":                    "line 2: bad edge",
		"p cut 2 1\n\ne 0 1 9223372036854775808\n": "line 3: bad edge",
		"p cut 2 1\ne 0 1 -9223372036854775809\n":  "line 2: bad edge",
		"p cut 2 1\ne 0 1 9223372036854775807\n":   "line 2: graph: total weight",
		"p cut 2 1\ne 0 2 1\n":                     "line 2: graph: edge {0,2} out of range",
		"p cut 2 1\ne 0 1 0\n":                     "line 2: graph: edge {0,1} has non-positive weight",
	}
	for in, want := range reject {
		_, err := graph.Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err %v, want %q", in, err, want)
		}
	}
}

// TestReadFalseEdgeCount: a problem line may claim any m. Read reserves
// room for at most 1,024 edges (16 KiB) from it, so a batch upload of
// 1,024 such headers, whose parsed graphs live until the batch is stored,
// pins at most 16 MiB; and Read takes every edge line whatever m says.
func TestReadFalseEdgeCount(t *testing.T) {
	for _, m := range []string{"65536", "4611686018427387904"} {
		g, err := graph.Read(strings.NewReader("p cut 1 " + m + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(g.Edges()); c > 1024 {
			t.Errorf("a header claiming m = %s left room for %d edges, want at most 1,024", m, c)
		}
	}
	g, err := graph.Read(strings.NewReader("p cut 3 1\ne 0 1 1\ne 1 2 1\ne 2 0 1\n"))
	if err != nil || g.M() != 3 {
		t.Fatalf("edges beyond the header's m: err=%v", err)
	}
}

// TestReadReturnsSourceError: when the source fails, also inside a line,
// Read's error wraps the source's, not the parse error of the line's
// piece, so callers can still tell a failed read from a malformed graph.
func TestReadReturnsSourceError(t *testing.T) {
	cause := errors.New("body too large")
	for _, in := range []string{"p cut 3 2\ne 0 1 5\ne 1 2", "p cut 3 2\ne 0 1 5\ne 1 2 7\n", "p cu", ""} {
		_, err := graph.Read(io.MultiReader(strings.NewReader(in), iotest.ErrReader(cause)))
		if !errors.Is(err, cause) {
			t.Errorf("%q: err %v, want the source's", in, err)
		}
	}
}

// TestWriteMatchesFprintf: Write emits the same bytes as the fmt.Fprintf
// writer it replaced, so content IDs (SHA-256 of the canonical
// serialization) and stored segments do not drift.
func TestWriteMatchesFprintf(t *testing.T) {
	cases := map[string]*graph.Graph{
		"n=0":           graph.New(0),
		"n=1":           graph.New(1),
		"m=0":           graph.New(7),
		"n=2^30":        graph.New(1 << 30),
		"max weight":    graph.New(2),
		"split weights": graph.New(3),
	}
	for _, err := range []error{
		cases["n=1"].AddEdge(0, 0, 3),
		cases["n=2^30"].AddEdge(1<<30-1, 0, 1),
		cases["max weight"].AddEdge(1, 0, graph.MaxTotalWeight),
		cases["split weights"].AddEdge(2, 1, graph.MaxTotalWeight-12345),
		cases["split weights"].AddEdge(0, 2, 12345),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range []string{
		"random:n=2000,m=8000,w=100",
		"random:n=256,m=8192,w=1000000",
		"planted:na=30,nb=26,k=4",
		"dumbbell:n=12,bridge=3",
		"cycle:n=128,w=50",
		"grid:rows=5,cols=7,w=10,torus=1",
		"clique:n=20,w=10",
		"disconnected:na=5,nb=6",
	} {
		g, _, err := gen.FromSpec(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		cases[spec] = g
		cases[spec+" canonical"] = g.Canonical()
	}
	for name, g := range cases {
		var got, want bytes.Buffer
		if err := graph.Write(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeFmt(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write emits %d bytes that differ from Fprintf's %d", name, got.Len(), want.Len())
		}
	}
}

// uploadText is the text of the service benchmark's upload shape: a
// random connected graph of n = 2,000 and m = 8,000.
func uploadText(t testing.TB) []byte {
	g, _, err := gen.FromSpec("random:n=2000,m=8000,w=100", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadAllocs pins Read's allocations on the upload shape: a bounded
// number per graph, none per edge line (the Sscanf reader made 71,320).
func TestReadAllocs(t *testing.T) {
	text := uploadText(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := graph.Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 30 {
		t.Fatalf("Read of 8,000 edge lines made %v allocations, want at most 30", allocs)
	}
}

func BenchmarkRead(b *testing.B) {
	text := uploadText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for range b.N {
		if _, err := graph.Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	g, err := graph.Read(bytes.NewReader(uploadText(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		if err := graph.Write(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonical(b *testing.B) {
	g, err := graph.Read(bytes.NewReader(uploadText(b)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for range b.N {
		g.Canonical()
	}
}
