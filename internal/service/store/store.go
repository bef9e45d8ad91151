// Package store is the service layer's disk-backed graph store: the
// durable half of the registry. Graphs are kept as their canonical text
// serialization in append-only segment files (seg-000001.dat, …), and a
// small manifest acts as the write-ahead commit log: a graph exists iff
// the manifest holds a valid record for it. The commit protocol is
//
//	append payload to the current segment → fsync segment →
//	append manifest record → fsync manifest
//
// so a crash at any point leaves either a fully committed graph or an
// orphaned segment tail that the next Open truncates away. Manifest
// records carry a CRC of their own line and of the payload they point
// at; loads re-verify the payload CRC, so a bit-flipped segment surfaces
// a clean error instead of a wrong graph. Deletes append a tombstone
// record; a segment whose graphs are all deleted is removed from disk.
//
// The store is a durable index, not a cache: Get reads are lazy (nothing
// is held in memory beyond the index), concurrent (reads use ReadAt on
// per-segment read handles and never block appends), and CRC-checked.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	parcut "repro"
)

const (
	manifestName = "MANIFEST"
	segPrefix    = "seg-"
	segSuffix    = ".dat"

	// DefaultMaxSegmentBytes is how large a segment grows before appends
	// rotate to a fresh file. One graph may exceed it (segments are never
	// split mid-graph); rotation just bounds the typical file size so dead
	// segments can be reclaimed at useful granularity.
	DefaultMaxSegmentBytes = 64 << 20
)

// castagnoli is the CRC-32C table used for both payload and manifest-line
// checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNotFound reports a Get or Delete of a graph the store does not hold.
var ErrNotFound = errors.New("store: graph not found")

// ErrDiskFull reports a Put that would exceed Options.MaxDiskBytes.
var ErrDiskFull = errors.New("store: disk budget exceeded")

// ErrCorrupt wraps payload integrity failures (CRC mismatch, truncated
// segment, re-parse disagreement) detected at load time.
var ErrCorrupt = errors.New("store: corrupt segment data")

// Options configures Open.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// MaxSegmentBytes rotates the append segment once it reaches this
	// size. 0 means DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// MaxDiskBytes caps the total bytes held in segment files; Put returns
	// ErrDiskFull rather than exceed it. 0 means unbounded.
	MaxDiskBytes int64
	// NoSync skips the fsync calls. Only tests that simulate crashes by
	// mutating files directly should set it; a real deployment loses the
	// crash-safety guarantee without the syncs.
	NoSync bool
	// Log receives recovery and corruption warnings (torn tails truncated,
	// entries dropped). Nil means slog.Default().
	Log *slog.Logger
}

// Entry describes one committed graph: where its canonical serialization
// lives and the CRC it must match.
type Entry struct {
	ID   string
	N, M int
	Seg  int
	Off  int64
	Len  int64
	CRC  uint32
}

// Stats is a snapshot of the store's state and counters.
type Stats struct {
	// Graphs is the number of live (committed, undeleted) graphs.
	Graphs int
	// Segments is the number of segment files on disk.
	Segments int
	// Bytes is the total size of the segment files; LiveBytes the subset
	// still referenced by live graphs (the rest is tombstoned space that
	// is reclaimed when its whole segment dies).
	Bytes, LiveBytes int64
	// MaxDiskBytes echoes the configured budget (0 = unbounded).
	MaxDiskBytes int64
	// Recovered is how many graphs the last Open rebuilt into the index.
	Recovered int64
	// CorruptTail counts torn tail writes truncated by Open (orphaned
	// segment bytes or a partial manifest record) plus committed entries
	// dropped because their segment bytes were missing.
	CorruptTail int64
	// Loads counts successful Gets; LoadErrors the Gets that failed
	// integrity checks or I/O.
	Loads, LoadErrors int64
	// Puts and Deletes count committed writes and tombstones.
	Puts, Deletes int64
	// Syncs counts fsync barriers issued by the commit protocol (segment
	// and manifest file syncs; directory syncs excluded). It still counts
	// under Options.NoSync — the barrier was reached, just not executed —
	// so tests can assert group-commit batching (a PutMany of N graphs
	// costs 2 barriers where N singular Puts cost 2N).
	Syncs int64
}

// Store is a crash-safe, disk-backed graph store. Create with Open.
type Store struct {
	dir    string
	maxSeg int64
	maxDsk int64
	noSync bool
	log    *slog.Logger

	mu        sync.Mutex
	index     map[string]Entry
	segBytes  map[int]int64 // committed size per segment
	segLive   map[int]int   // live entries per segment
	readers   map[int]*os.File
	cur       *os.File // current append segment, nil until first Put
	curSeg    int
	curOff    int64
	manifest  *os.File
	manOff    int64 // committed manifest size; rollback target on append failure
	manBroken bool  // a manifest rollback failed; no further writes
	closed    bool

	liveBytes  int64
	totalBytes int64

	recovered   int64
	corruptTail int64
	loads       atomic.Int64
	loadErrors  atomic.Int64
	puts        atomic.Int64
	deletes     atomic.Int64
	syncs       atomic.Int64
}

// Open creates or recovers the store in opts.Dir. Recovery replays the
// manifest (truncating a torn final record), drops committed entries
// whose segment bytes are missing, truncates orphaned segment tails that
// were appended but never committed, and deletes segment files with no
// live entries left.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	s := &Store{
		dir:      opts.Dir,
		maxSeg:   opts.MaxSegmentBytes,
		maxDsk:   opts.MaxDiskBytes,
		noSync:   opts.NoSync,
		log:      opts.Log,
		index:    make(map[string]Entry),
		segBytes: make(map[int]int64),
		segLive:  make(map[int]int),
		readers:  make(map[int]*os.File),
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func segName(n int) string { return fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix) }

func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSuffix(name, segSuffix), segPrefix+"%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// recover rebuilds the in-memory index from disk. Caller owns s.mu-free
// access (no other goroutine sees s yet).
func (s *Store) recover() error {
	manPath := filepath.Join(s.dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: read manifest: %w", err)
	}

	// Replay the manifest. Records are newline-terminated and carry a
	// trailing CRC of the rest of the line; the first record that fails to
	// parse — typically a partial final line from a crash mid-append —
	// ends the committed prefix, and the manifest is truncated there.
	// committedEnd tracks the furthest byte any record (including ones
	// later tombstoned) ever committed per segment: deleted graphs leave
	// gaps that are legitimate file content, not torn tails.
	committed := int64(0)
	committedEnd := make(map[int]int64)
	for off := int64(0); off < int64(len(data)); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // partial final line
		}
		line := string(data[off : off+int64(nl)])
		e, del, ok := parseRecord(line)
		if !ok {
			// Only the FINAL record can legitimately be invalid — a crash
			// tears at most the line being appended. An invalid record with
			// complete records after it is corruption in the committed
			// prefix; truncating there would silently destroy every later
			// graph, so refuse to open instead of guessing.
			if rest := data[off+int64(nl)+1:]; len(rest) > 0 {
				return fmt.Errorf("store: manifest record at byte %d is corrupt but not the final record; refusing to recover (restore the manifest from backup or remove %s to start fresh)",
					off, filepath.Join(s.dir, manifestName))
			}
			break
		}
		if del {
			if old, exists := s.index[e.ID]; exists {
				delete(s.index, e.ID)
				s.segLive[old.Seg]--
			}
		} else {
			if old, exists := s.index[e.ID]; exists {
				s.segLive[old.Seg]--
			}
			s.index[e.ID] = e
			s.segLive[e.Seg]++
			if end := e.Off + e.Len; end > committedEnd[e.Seg] {
				committedEnd[e.Seg] = end
			}
		}
		off += int64(nl) + 1
		committed = off
	}
	if committed < int64(len(data)) {
		if err := os.Truncate(manPath, committed); err != nil {
			return fmt.Errorf("store: truncate torn manifest: %w", err)
		}
		s.corruptTail++
		s.log.Warn("store: truncated torn manifest record", "dir", s.dir, "committed_bytes", committed, "torn_bytes", int64(len(data))-committed)
	}

	// Drop committed entries whose segment bytes do not exist on disk —
	// impossible under the commit protocol's write ordering, but the index
	// must never point past a file's end.
	segSize := make(map[int]int64)
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: read dir: %w", err)
	}
	maxSegSeen := 0
	for _, de := range dirents {
		n, ok := parseSegName(de.Name())
		if !ok {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			return fmt.Errorf("store: stat %s: %w", de.Name(), err)
		}
		segSize[n] = fi.Size()
		if n > maxSegSeen {
			maxSegSeen = n
		}
	}
	for id, e := range s.index {
		if e.Off+e.Len > segSize[e.Seg] {
			delete(s.index, id)
			s.segLive[e.Seg]--
			s.corruptTail++
			s.log.Warn("store: dropped committed graph with missing segment bytes", "dir", s.dir, "graph", id, "segment", e.Seg)
		}
	}

	// Per segment: anything past the committed end is a torn tail write —
	// payload that made it to the segment (or partially did) before the
	// crash beat the manifest record. Truncate it. A segment with no live
	// entries left (never referenced, or all deleted) is removed whole.
	for seg, size := range segSize {
		if s.segLive[seg] <= 0 {
			if err := os.Remove(filepath.Join(s.dir, segName(seg))); err != nil {
				return fmt.Errorf("store: remove dead segment: %w", err)
			}
			continue
		}
		if end := committedEnd[seg]; size > end {
			if err := os.Truncate(filepath.Join(s.dir, segName(seg)), end); err != nil {
				return fmt.Errorf("store: truncate torn segment: %w", err)
			}
			s.corruptTail++
			s.log.Warn("store: truncated torn segment tail", "dir", s.dir, "segment", seg, "committed_bytes", end, "torn_bytes", size-end)
			size = end
		}
		s.segBytes[seg] = size
	}

	for _, e := range s.index {
		s.liveBytes += e.Len
	}
	for _, b := range s.segBytes {
		s.totalBytes += b
	}

	// Resume appending at the end of the highest live segment, or start
	// fresh past the highest segment number ever seen (never reuse a
	// number: a removed dead segment's records may still be replayed from
	// the manifest on the next recovery, and must not alias new bytes).
	s.curSeg = maxSegSeen
	for seg := range s.segBytes {
		if seg > s.curSeg {
			s.curSeg = seg
		}
	}
	if s.curSeg == 0 {
		s.curSeg = 1
	} else if _, alive := s.segBytes[s.curSeg]; !alive {
		s.curSeg++
	}
	s.curOff = s.segBytes[s.curSeg]

	man, err := os.OpenFile(manPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("store: open manifest: %w", err)
	}
	s.manifest = man
	s.manOff = committed
	s.recovered = int64(len(s.index))
	return s.syncDir()
}

// record formats and parseRecord parses one manifest line. The layout is
//
//	add <id> <seg> <off> <len> <n> <m> <payloadCRC> <lineCRC>
//	del <id> <lineCRC>
//
// where lineCRC is the CRC-32C of everything before its preceding space.
func record(e Entry) string {
	body := fmt.Sprintf("add %s %d %d %d %d %d %d", e.ID, e.Seg, e.Off, e.Len, e.N, e.M, e.CRC)
	return fmt.Sprintf("%s %d\n", body, crc32.Checksum([]byte(body), castagnoli))
}

func tombstone(id string) string {
	body := "del " + id
	return fmt.Sprintf("%s %d\n", body, crc32.Checksum([]byte(body), castagnoli))
}

func parseRecord(line string) (e Entry, del bool, ok bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return Entry{}, false, false
	}
	body := line[:sp]
	var lineCRC uint32
	if _, err := fmt.Sscanf(line[sp+1:], "%d", &lineCRC); err != nil {
		return Entry{}, false, false
	}
	if crc32.Checksum([]byte(body), castagnoli) != lineCRC {
		return Entry{}, false, false
	}
	switch {
	case strings.HasPrefix(body, "add "):
		var crc uint32
		if _, err := fmt.Sscanf(body, "add %s %d %d %d %d %d %d", &e.ID, &e.Seg, &e.Off, &e.Len, &e.N, &e.M, &crc); err != nil {
			return Entry{}, false, false
		}
		if e.Seg < 1 || e.Off < 0 || e.Len <= 0 || e.N < 0 || e.M < 0 {
			return Entry{}, false, false
		}
		e.CRC = crc
		return e, false, true
	case strings.HasPrefix(body, "del "):
		e.ID = body[len("del "):]
		return e, true, e.ID != ""
	}
	return Entry{}, false, false
}

// countingCRCWriter tees payload bytes into a CRC and a length counter on
// their way to the segment file.
type countingCRCWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (c *countingCRCWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// Put durably stores g's canonical serialization under id: a group
// commit of one (see PutMany), so the write is committed — visible to Get
// and to recovery — only after the segment bytes and the manifest record
// are both on disk. It reports existed=true, and writes nothing, when the
// store already holds id.
func (s *Store) Put(id string, g *parcut.Graph) (existed bool, err error) {
	ex, err := s.PutMany([]string{id}, []*parcut.Graph{g})
	if err != nil {
		return false, err
	}
	return ex[0], nil
}

// PutMany durably stores every graph of the batch under its id with one
// group commit: all payloads are appended to the current segment, the
// segment is fsynced once, all manifest records are appended as one
// write, and the manifest is fsynced once — two fsync barriers for the
// whole batch instead of the 2·N a loop of Put calls would issue, which
// is the difference between disk-bound and ingest-bound bulk uploads.
//
// The batch is atomic: either every new graph is committed or none is (a
// failed payload write or manifest append rolls the segment back to the
// committed end). Graphs the store already holds — including duplicates
// within the batch — are skipped and reported existed=true. The whole
// batch lands in one segment, so a batch may overshoot the rotation
// threshold the same way a single oversized graph does. PutMany is the
// only function that writes graph payloads.
func (s *Store) PutMany(ids []string, gs []*parcut.Graph) (existed []bool, err error) {
	if len(ids) != len(gs) {
		return nil, fmt.Errorf("store: PutMany: %d ids for %d graphs", len(ids), len(gs))
	}
	for _, id := range ids {
		// Any whitespace or control character would corrupt the manifest's
		// space-delimited, newline-terminated records.
		if id == "" || strings.ContainsFunc(id, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
			return nil, fmt.Errorf("store: invalid graph id %q", id)
		}
	}
	existed = make([]bool, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	fresh := make([]int, 0, len(ids)) // indices that actually need writing
	inBatch := make(map[string]bool, len(ids))
	for i, id := range ids {
		if _, ok := s.index[id]; ok || inBatch[id] {
			existed[i] = true
			continue
		}
		inBatch[id] = true
		fresh = append(fresh, i)
	}
	if len(fresh) == 0 {
		return existed, nil
	}
	// Reject an already-full store before writing anything: the exact
	// check happens once payload lengths are known, but a retry loop
	// against a full disk must not re-write (and truncate away) the whole
	// batch each attempt.
	if s.maxDsk > 0 && s.totalBytes >= s.maxDsk {
		return nil, fmt.Errorf("%w: %d bytes held, budget %d", ErrDiskFull, s.totalBytes, s.maxDsk)
	}
	if err := s.rotateLocked(); err != nil {
		return nil, err
	}
	// Phase 1: append every payload. Offsets are assigned sequentially
	// from the committed end; nothing is visible until the manifest
	// records land. rollback drops uncommitted payload bytes (best effort:
	// the next rotateLocked or recovery truncates any left over) and the
	// handle, so the next commit reseeks to the committed end.
	rollback := func() {
		_ = s.cur.Truncate(s.curOff)
		_ = s.cur.Close()
		s.cur = nil
	}
	entries := make([]Entry, 0, len(fresh))
	off := s.curOff
	var batchBytes int64
	for _, i := range fresh {
		cw := &countingCRCWriter{w: s.cur, crc: crc32.New(castagnoli)}
		werr := gs[i].Write(cw)
		batchBytes += cw.n
		if werr == nil && s.maxDsk > 0 && s.totalBytes+batchBytes > s.maxDsk {
			werr = fmt.Errorf("%w: %d bytes held, %d more needed, budget %d",
				ErrDiskFull, s.totalBytes, batchBytes, s.maxDsk)
		}
		if werr != nil {
			rollback()
			return nil, werr
		}
		entries = append(entries, Entry{
			ID: ids[i], N: gs[i].N(), M: gs[i].M(),
			Seg: s.curSeg, Off: off, Len: cw.n, CRC: cw.crc.Sum32(),
		})
		off += cw.n
	}
	// Phase 2: one segment barrier, then all records in one append and
	// one manifest barrier.
	if err := s.syncFile(s.cur); err != nil {
		rollback()
		return nil, err
	}
	var records strings.Builder
	for _, e := range entries {
		records.WriteString(record(e))
	}
	if err := s.appendManifestLocked(records.String()); err != nil {
		rollback()
		return nil, err
	}
	// Phase 3: the batch is durable; make it visible.
	for _, e := range entries {
		s.index[e.ID] = e
		s.segLive[e.Seg]++
		s.segBytes[e.Seg] += e.Len
		s.liveBytes += e.Len
	}
	s.curOff = off
	s.totalBytes += batchBytes
	s.puts.Add(int64(len(entries)))
	return existed, nil
}

// rotateLocked ensures an open append segment with room under the
// rotation threshold (a single oversized graph may still overflow it).
func (s *Store) rotateLocked() error {
	if s.cur != nil && s.curOff >= s.maxSeg {
		if err := s.cur.Close(); err != nil {
			return fmt.Errorf("store: close segment: %w", err)
		}
		s.cur = nil
		s.curSeg++
		s.curOff = 0
	}
	if s.cur == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, segName(s.curSeg)), os.O_CREATE|os.O_WRONLY, 0o666)
		if err != nil {
			return fmt.Errorf("store: open segment: %w", err)
		}
		// Drop any uncommitted orphan bytes a failed commit left behind,
		// then position at the committed end.
		if err := f.Truncate(s.curOff); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate segment to committed end: %w", err)
		}
		if _, err := f.Seek(s.curOff, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("store: seek segment: %w", err)
		}
		s.cur = f
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) appendManifestLocked(line string) error {
	if s.manBroken {
		return errors.New("store: a manifest rollback failed earlier; refusing further writes (reopen the store to recover)")
	}
	if _, err := s.manifest.WriteString(line); err != nil {
		s.rollbackManifestLocked()
		return fmt.Errorf("store: append manifest: %w", err)
	}
	if err := s.syncFile(s.manifest); err != nil {
		s.rollbackManifestLocked()
		return err
	}
	s.manOff += int64(len(line))
	return nil
}

// rollbackManifestLocked truncates an unacknowledged (possibly partial)
// record off the manifest tail. Without this, a short write followed by a
// later successful append would glue two records into one garbage line in
// the middle of the manifest — which recovery rightly refuses to open. If
// even the truncate fails, the store stops accepting writes: reads stay
// valid, and reopening re-runs recovery, which truncates the torn final
// record itself.
func (s *Store) rollbackManifestLocked() {
	if err := s.manifest.Truncate(s.manOff); err != nil {
		s.manBroken = true
		s.log.Error("store: manifest rollback failed; refusing further writes", "dir", s.dir, "error", err)
	}
}

func (s *Store) syncFile(f *os.File) error {
	s.syncs.Add(1)
	if s.noSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync %s: %w", f.Name(), err)
	}
	return nil
}

// syncDir fsyncs the data directory so file creations and removals are
// themselves durable.
func (s *Store) syncDir() error {
	if s.noSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

// Get loads, CRC-checks, and parses the graph stored under id. The disk
// read happens outside the store lock (ReadAt on a per-segment read
// handle), so concurrent loads — e.g. the scheduler's workers faulting
// evicted graphs back in — proceed in parallel with each other and with
// appends.
func (s *Store) Get(id string) (*parcut.Graph, error) {
	s.mu.Lock()
	e, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	r, err := s.readerLocked(e.Seg)
	s.mu.Unlock()
	if err != nil {
		s.loadErrors.Add(1)
		return nil, err
	}
	buf := make([]byte, e.Len)
	if _, err := r.ReadAt(buf, e.Off); err != nil {
		// A concurrent Delete may have reclaimed the segment (closing this
		// handle) between the index lookup and the read — that is a plain
		// not-found for this caller, not corruption.
		s.mu.Lock()
		_, still := s.index[id]
		s.mu.Unlock()
		if !still {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("%w: %s: segment %d read: %v", ErrCorrupt, id, e.Seg, err)
	}
	if got := crc32.Checksum(buf, castagnoli); got != e.CRC {
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("%w: %s: segment %d CRC mismatch (stored %d, computed %d)", ErrCorrupt, id, e.Seg, e.CRC, got)
	}
	g, err := parcut.ReadGraph(bytes.NewReader(buf))
	if err != nil {
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("%w: %s: parse: %v", ErrCorrupt, id, err)
	}
	if g.N() != e.N || g.M() != e.M {
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("%w: %s: parsed n=%d m=%d, manifest says n=%d m=%d", ErrCorrupt, id, g.N(), g.M(), e.N, e.M)
	}
	s.loads.Add(1)
	return g, nil
}

// readerLocked returns (opening and caching if needed) the read-only
// handle for a segment. ReadAt on *os.File is safe for concurrent use.
func (s *Store) readerLocked(seg int) (*os.File, error) {
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if f, ok := s.readers[seg]; ok {
		return f, nil
	}
	f, err := os.Open(filepath.Join(s.dir, segName(seg)))
	if err != nil {
		return nil, fmt.Errorf("store: open segment for read: %w", err)
	}
	s.readers[seg] = f
	return f, nil
}

// Delete removes id: a tombstone is committed to the manifest, and if
// that leaves the graph's segment with no live entries (and it is not
// the append segment) the whole file is reclaimed.
func (s *Store) Delete(id string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errors.New("store: closed")
	}
	e, ok := s.index[id]
	if !ok {
		return false, nil
	}
	if err := s.appendManifestLocked(tombstone(id)); err != nil {
		return false, err
	}
	delete(s.index, id)
	s.segLive[e.Seg]--
	s.liveBytes -= e.Len
	s.deletes.Add(1)
	if s.segLive[e.Seg] <= 0 && e.Seg != s.curSeg {
		if f, ok := s.readers[e.Seg]; ok {
			f.Close()
			delete(s.readers, e.Seg)
		}
		if err := os.Remove(filepath.Join(s.dir, segName(e.Seg))); err != nil {
			return true, fmt.Errorf("store: remove dead segment: %w", err)
		}
		s.totalBytes -= s.segBytes[e.Seg]
		delete(s.segBytes, e.Seg)
		delete(s.segLive, e.Seg)
		return true, s.syncDir()
	}
	return true, nil
}

// Walk calls fn for every live graph, in unspecified order. It matches
// the registry's Backend interface so a restarting service can rebuild
// its index without loading any graph bytes.
func (s *Store) Walk(fn func(id string, n, m int)) {
	s.mu.Lock()
	entries := make([]Entry, 0, len(s.index))
	for _, e := range s.index {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	for _, e := range entries {
		fn(e.ID, e.N, e.M)
	}
}

// Info returns the index entry for id without touching the disk.
func (s *Store) Info(id string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	return e, ok
}

// Stats returns a snapshot of the store's state and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Graphs:       len(s.index),
		Segments:     len(s.segBytes),
		Bytes:        s.totalBytes,
		LiveBytes:    s.liveBytes,
		MaxDiskBytes: s.maxDsk,
		Recovered:    s.recovered,
		CorruptTail:  s.corruptTail,
	}
	if s.cur != nil {
		if _, ok := s.segBytes[s.curSeg]; !ok {
			st.Segments++ // open append segment with nothing committed yet
		}
	}
	s.mu.Unlock()
	st.Loads = s.loads.Load()
	st.LoadErrors = s.loadErrors.Load()
	st.Puts = s.puts.Load()
	st.Deletes = s.deletes.Load()
	st.Syncs = s.syncs.Load()
	return st
}

// Close releases the store's file handles. Committed data needs no
// further shutdown step — every Put was already fsynced.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, f := range s.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = map[int]*os.File{}
	if s.cur != nil {
		if err := s.cur.Close(); err != nil && first == nil {
			first = err
		}
		s.cur = nil
	}
	if s.manifest != nil {
		if err := s.manifest.Close(); err != nil && first == nil {
			first = err
		}
		s.manifest = nil
	}
	return first
}
