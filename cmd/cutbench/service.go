package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one mincutd subprocess with its own data directory.
type server struct {
	cmd     *exec.Cmd
	dir     string
	base    string
	logDone chan struct{}
}

var listenLine = regexp.MustCompile(`msg=listening addr=(\S+)`)

// registryBytes is mincutd's graph registry budget in edge bytes: room
// for the preloaded graphs and a few dozen uploads, so that older uploads
// are evicted to the store and peak RSS measures the steady state instead
// of how many uploads the run had time for.
const registryBytes = 4 << 20

// startServer runs mincutd with default flags, apart from a bounded graph
// registry, on an ephemeral loopback port and a fresh data directory
// under workdir, and waits until it listens.
func startServer(bin, workdir string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("the service workload needs -mincutd (run.sh builds it)")
	}
	dir, err := os.MkdirTemp(workdir, "mincutd-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dir, "-graph-cache-bytes", strconv.Itoa(registryBytes))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start mincutd: %w", err)
	}
	s := &server{cmd: cmd, dir: dir, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	// mincutd logs every request to stderr: keep draining it so the
	// server never blocks on a full pipe.
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.logDone:
		_ = s.stop()
		return nil, fmt.Errorf("mincutd exited before listening")
	case <-time.After(30 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("mincutd did not listen within 30s")
	}
}

// stop terminates the server, waits for it to exit and removes its data.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.logDone:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.logDone
	}
	err := s.cmd.Wait()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client talks to one server over one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and decodes a 2xx JSON reply into out; any other status
// is returned as an error carrying the reply.
func (c *client) post(path, ctype string, body []byte, out any) (int, error) {
	resp, err := c.hc.Post(c.base+path, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

type uploadReply struct {
	ID string `json:"id"`
	N  int    `json:"n"`
	M  int    `json:"m"`
}

func (c *client) upload(text []byte) (uploadReply, int, error) {
	var r uploadReply
	code, err := c.post("/v1/graphs", "text/plain", text, &r)
	return r, code, err
}

type solveReply struct {
	Value  *int64 `json:"value"`
	InCut  []bool `json:"in_cut"`
	Cached bool   `json:"cached"`
}

func (c *client) solve(id string, seed int64, eng string) (solveReply, error) {
	body, _ := json.Marshal(map[string]any{"seed": seed, "want_partition": true, "engine": eng})
	var r solveReply
	if _, err := c.post("/v1/graphs/"+id+"/mincut", "application/json", body, &r); err != nil {
		return r, err
	}
	if r.Value == nil {
		return r, fmt.Errorf("mincut reply carries no value")
	}
	return r, nil
}

// metrics scrapes /metrics into series name (with labels) → value.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// preload uploads the solve graphs and runs one untimed warm-up solve on
// graph 0. It returns the graph IDs and the warm-up answer.
func preload(c *client, w workload, seed int64, ins []input) ([]string, mixOp, error) {
	ids := make([]string, len(ins))
	for j, in := range ins {
		r, _, err := c.upload(in.text)
		if err != nil {
			return nil, mixOp{}, err
		}
		ids[j] = r.ID
	}
	r, err := c.solve(ids[0], warmSeed(seed), w.engine)
	if err != nil {
		return nil, mixOp{}, fmt.Errorf("warm-up: %w", err)
	}
	return ids, mixOp{kind: kindSolve, graph: 0, seed: warmSeed(seed), value: *r.Value, inCut: r.InCut}, nil
}

// Operation kinds of the service mix and their shares.
const (
	kindUpload  = "upload"  // 10%: a fresh graph
	kindSolve   = "solve"   // 20%: a cold solve, fresh seed, preloaded graph
	kindResolve = "resolve" // 70%: repeat a solve the client completed
)

// mixDeck is one block of ten operations with the mix's shares. The
// client deals its kinds from shuffled copies of it, so that every run
// has the exact shares: drawing each kind at random made a run's share
// of cold solves, and with it throughput, vary by several percent.
var mixDeck = []string{kindUpload, kindSolve, kindSolve,
	kindResolve, kindResolve, kindResolve, kindResolve, kindResolve, kindResolve, kindResolve}

// minPerKind is the fewest operations of each kind a mix makes, so each
// kind's p50 has minBeyond samples beyond it.
const minPerKind = 2 * minBeyond

// mixOp is one operation of the service mix and what came back.
type mixOp struct {
	kind  string
	graph int // solve graph index (solve, resolve)
	seed  int64
	lat   float64 // ms
	err   error
	value int64
	inCut []bool
	want  int64       // resolve: the value of the solve it repeats
	sent  uploadReply // upload: the sizes sent; reply checked against them
	got   uploadReply
	code  int
}

// freshGraph returns text, a serialized graph, with its last edge's
// weight set to weight: a graph the server has not seen, of the same
// size, that costs the client no generation between two timed requests.
func freshGraph(text []byte, weight int64) []byte {
	body := bytes.TrimRight(text, "\n")
	head := body[:bytes.LastIndexByte(body, ' ')+1]
	out := make([]byte, 0, len(text)+20)
	out = append(out, head...)
	out = strconv.AppendInt(out, weight, 10)
	return append(out, '\n')
}

// mixClient is the closed-loop client of the service mix: its seeded
// generator, the kinds left in its current block, how many cold solves
// it sent, the solves it completed, and its operations so far.
type mixClient struct {
	base      int64
	rng       *rand.Rand
	deck      []string
	solves    int
	completed []mixOp
	ops       []mixOp
}

// runMix drives the service mix with one closed-loop client for at least
// dur, minOps operations and minPerKind of each kind. Each operation is
// timed right after a speed probe and scaled by it (see speed.go), which
// needs the machine idle while the probe runs: that is why there is one
// client. The client deals its kinds from mixDeck and draws repeats from
// its seeded generator, among the solves it (or the warm-up) completed;
// cold solves take the graphs in turn. Each upload carries up with a
// last-edge weight no other upload of the run uses, so every upload is a
// fresh graph. It returns the operations and their scaled total time, in
// seconds.
func runMix(c *client, w workload, seed int64, ids []string, warm mixOp, up input, dur time.Duration) ([]mixOp, float64) {
	base := clientSeed(seed)
	mc := &mixClient{base: base, rng: rand.New(rand.NewSource(base)), completed: []mixOp{warm}}
	perKind := map[string]int{}
	var busy float64
	for start := time.Now(); time.Since(start) < dur || len(mc.ops) < minOps ||
		perKind[kindUpload] < minPerKind || perKind[kindSolve] < minPerKind || perKind[kindResolve] < minPerKind; {
		scale := w.speedScale()
		o := mc.next(c, w, ids, up)
		o.lat *= scale
		busy += o.lat / 1000
		mc.ops = append(mc.ops, o)
		perKind[o.kind]++
	}
	return mc.ops, busy
}

// next draws and sends the client's next operation and returns it with
// its latency in ms.
func (mc *mixClient) next(c *client, w workload, ids []string, up input) mixOp {
	if len(mc.deck) == 0 {
		mc.deck = append(mc.deck, mixDeck...)
		mc.rng.Shuffle(len(mc.deck), func(i, j int) { mc.deck[i], mc.deck[j] = mc.deck[j], mc.deck[i] })
	}
	kind := mc.deck[0]
	mc.deck = mc.deck[1:]
	i := len(mc.ops)
	var o mixOp
	switch kind {
	case kindUpload:
		o = mixOp{kind: kindUpload, sent: uploadReply{N: up.g.N(), M: up.g.M()}}
		text := freshGraph(up.text, 1+int64(i))
		t0 := time.Now()
		o.got, o.code, o.err = c.upload(text)
		o.lat = millis(time.Since(t0))
	case kindSolve:
		// Cold solves take the preloaded graphs in turn, as the solver
		// workloads do, so every run solves the same mix of graphs.
		o = mixOp{kind: kindSolve, graph: mc.solves % len(ids), seed: mc.base + int64(i)}
		mc.solves++
		o.lat, o.value, o.inCut, o.err = timedSolve(c, ids[o.graph], o.seed, w.engine)
		if o.err == nil {
			mc.completed = append(mc.completed, o)
		}
	default:
		prev := mc.completed[mc.rng.Intn(len(mc.completed))]
		o = mixOp{kind: kindResolve, graph: prev.graph, seed: prev.seed, want: prev.value}
		o.lat, o.value, o.inCut, o.err = timedSolve(c, ids[o.graph], o.seed, w.engine)
	}
	return o
}

func timedSolve(c *client, id string, seed int64, eng string) (float64, int64, []bool, error) {
	t0 := time.Now()
	r, err := c.solve(id, seed, eng)
	lat := millis(time.Since(t0))
	if err != nil {
		return lat, 0, nil, err
	}
	return lat, *r.Value, r.InCut, nil
}

// checkMix counts the failed operations of a mix: errors, non-2xx
// replies, uploads not created as sent, wrong or mispartitioned cuts, and
// repeats that disagree with the solve they repeat. A cut below the
// reference is returned as an error.
func checkMix(ops []mixOp, ins []input) (int, error) {
	failed := 0
	for _, o := range ops {
		ok := o.err == nil
		switch {
		case !ok:
		case o.kind == kindUpload:
			ok = o.code == http.StatusCreated && o.got.ID != "" && o.got.N == o.sent.N && o.got.M == o.sent.M
		default:
			var err error
			if ok, err = checkAnswer(ins[o.graph], o.value, o.inCut); err != nil {
				return 0, fmt.Errorf("%s of graph %d seed %d: %w", o.kind, o.graph, o.seed, err)
			}
			ok = ok && (o.kind != kindResolve || o.value == o.want)
		}
		if !ok {
			failed++
		}
	}
	return failed, nil
}

// runService is the service workload's timed run: set up mincutd
// (start, preload, warm-up) setupRepeats times, keep the last server, and
// drive the mix against it.
func runService(w workload, seed int64, dur time.Duration, ins []input, bin, workdir string) (result, error) {
	up, err := uploadGraph(w, seed)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	var srv *server
	var c *client
	var ids []string
	var warm mixOp
	defer func() {
		if srv != nil {
			c.close()
			_ = srv.stop()
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			c.close()
			if err := srv.stop(); err != nil {
				return result{}, fmt.Errorf("stop mincutd: %w", err)
			}
			srv = nil
		}
		scale := w.speedScale()
		start := time.Now()
		if srv, err = startServer(bin, workdir); err != nil {
			return result{}, err
		}
		c = newClient(srv.base)
		if ids, warm, err = preload(c, w, seed, ins); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds()*scale)
	}
	if err := resetPeakRSS(srv.cmd.Process.Pid); err != nil {
		return result{}, err
	}
	ops, wall := runMix(c, w, seed, ids, warm, up, dur)
	failed, err := checkMix(ops, ins)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return result{}, err
	}
	lats := make([]float64, len(ops))
	for i, o := range ops {
		lats[i] = o.lat
	}
	return endToEnd(lats, wall, median(setups), rss, failed)
}
