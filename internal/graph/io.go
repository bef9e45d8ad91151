package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// maxLine bounds the length of one input line.
const maxLine = 1 << 20

// maxEdgeHint caps the edges Read reserves room for from a problem line's
// m: 1,024 edges, 16 KiB. A header with a false m thus cannot force a large
// allocation, and a batch upload of 1,024 such headers, whose parsed graphs
// live until the batch is stored, pins at most 16 MiB.
const maxEdgeHint = 1 << 10

// Write emits g in a DIMACS-like text format:
//
//	c <comment>
//	p cut <n> <m>
//	e <u> <v> <w>
//
// with 0-based vertex ids.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p cut %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	line := make([]byte, 0, 64)
	for _, e := range g.Edges() {
		line = append(line[:0], 'e', ' ')
		line = strconv.AppendInt(line, int64(e.U), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e.V), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, e.W, 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format produced by Write. Each line is trimmed of
// surrounding white space; blank lines and lines starting with 'c' are
// skipped. One problem line "p <kind> <n> <m>", with 0 <= n <= 2^30, comes
// before any edge; m is only a hint. An edge line is
//
//	e|a <u> <v> <w>
//
// with exactly three decimal integers, each with an optional sign and in
// int64 range, separated by spaces or tabs. Anything else on an edge line
// is an error: a fourth field, a number running into other characters
// ("5junk", "1_000") and a record letter glued to its first number
// ("e0 1 5") all are. So is any edge AddEdge rejects. Errors name the
// line. An error from r comes back wrapped, so errors.Is and errors.As
// find it, also when the piece of a line it cut short does not parse.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var g *Graph
	line := 0
	// fail reports a bad line, or r's error if r failed first: the line
	// may be the piece of one that r cut short.
	fail := func(format string, args ...any) error {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("graph: read: %w", err)
		}
		return fmt.Errorf("graph: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == 'c' {
			continue
		}
		switch text[0] {
		case 'p':
			var kind string
			var n, m int
			if _, err := fmt.Sscanf(string(text), "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fail("bad problem line: %v", err)
			}
			if n < 0 || m < 0 || n > 1<<30 {
				return nil, fail("invalid sizes n=%d m=%d", n, m)
			}
			if g != nil {
				return nil, fail("duplicate problem line")
			}
			g = New(n)
			g.edges = make([]Edge, 0, min(m, maxEdgeHint))
		case 'e', 'a':
			if g == nil {
				return nil, fail("edge before problem line")
			}
			f, ok := parseEdge(text[1:])
			if !ok {
				return nil, fail(`bad edge: want "e <u> <v> <w>", three decimal int64s separated by spaces or tabs`)
			}
			if err := g.AddEdge(int(f[0]), int(f[1]), f[2]); err != nil {
				return nil, fail("%v", err)
			}
		default:
			return nil, fail("unknown record %q", text[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	return g, nil
}

// parseEdge parses the rest of an edge line after its record letter:
// three integers, each after spaces or tabs, and nothing else.
func parseEdge(b []byte) (f [3]int64, ok bool) {
	for i := range f {
		if f[i], b, ok = nextInt(b); !ok {
			return f, false
		}
	}
	return f, len(b) == 0
}

// nextInt parses the spaces or tabs, then the decimal integer with an
// optional sign, that start b, and returns the integer with the rest of b.
// It fails if either is missing or the integer overflows int64.
func nextInt(b []byte) (int64, []byte, bool) {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
		i++
	}
	if i == 0 {
		return 0, b, false
	}
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	start := i
	var x uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		// Past 2^63/10, one more digit passes 2^63; below it, x stays
		// far from wrapping.
		if x > 1<<63/10 {
			return 0, b, false
		}
		x = 10*x + uint64(b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if i == start || x > limit {
		return 0, b, false
	}
	if neg {
		return -int64(x), b[i:], true
	}
	return int64(x), b[i:], true
}
