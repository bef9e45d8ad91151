package store

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"testing"

	parcut "repro"
)

// FuzzStoreRecover damages a committed store — one byte of the manifest
// or of a segment flipped, or the file truncated at one offset — and
// reopens it. Open may refuse the directory; if it opens, Get of every
// committed graph returns the committed payload bit for bit or an error,
// never a different graph.
func FuzzStoreRecover(f *testing.F) {
	// file indexes the sorted directory listing: 0 is MANIFEST, 1 to 3 the
	// segments.
	for _, file := range []uint8{0, 1, 3} {
		for _, off := range []uint32{0, 7, 150, 1 << 20} {
			f.Add(file, false, off, uint8(0x01))
			f.Add(file, true, off, uint8(0))
		}
	}
	f.Add(uint8(0), false, uint32(90), uint8('\n'))
	f.Fuzz(func(t *testing.T, file uint8, truncate bool, off uint32, mask uint8) {
		dir := t.TempDir()
		// MaxSegmentBytes 1 rotates before every commit, so the graphs
		// spread over several segments.
		opts := Options{Dir: dir, MaxSegmentBytes: 1, NoSync: true, Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		var gs []*parcut.Graph
		var payloads [][]byte
		for seed := int64(1); seed <= 4; seed++ {
			g, id, payload := canon(t, 6, 9, seed)
			ids, gs, payloads = append(ids, id), append(gs, g), append(payloads, payload)
		}
		mustPut(t, s, ids[0], gs[0])
		if _, err := s.PutMany(ids[1:3], gs[1:3]); err != nil {
			t.Fatal(err)
		}
		// A deleted graph leaves a tombstone record to replay.
		mustPut(t, s, ids[3], gs[3])
		if _, err := s.Delete(ids[3]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		sort.Strings(names)
		path := filepath.Join(dir, names[int(file)%len(names)])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		at := int(off % uint32(len(data)))
		if truncate {
			data = data[:at]
		} else {
			data[at] ^= mask
		}
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(opts)
		if err != nil {
			return // refusing a damaged directory is allowed
		}
		defer s2.Close()
		for i := 0; i < 3; i++ {
			g, err := s2.Get(ids[i])
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := g.Write(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), payloads[i]) {
				t.Fatalf("Get(%s) after damaging %s at %d returned a different graph", ids[i], filepath.Base(path), at)
			}
		}
	})
}
