// Command mincutd serves minimum-cut computations over HTTP: upload a
// graph once, solve it many times, concurrently, with caching and
// cancellation. See internal/service/httpapi for the API surface.
//
//	mincutd -addr :8080 -workers 8 -graph-cache-bytes 1073741824 \
//	        -data-dir /var/lib/mincutd
//
// With -data-dir set, uploaded graphs are committed to a crash-safe disk
// store before the upload returns, and a restart on the same directory
// recovers them — the in-memory registry becomes a cache over the store.
// Without it the service is memory-only and a restart starts empty.
//
// Observability: every log line is structured (text by default,
// -log-format json for machines), finished solves keep their span trees
// in a ring served by GET /v1/traces (size -trace-buffer, 0 disables),
// solves slower than -trace-slow-threshold are flagged in the log, and
// -debug-addr starts a separate listener exposing net/http/pprof —
// opt-in and separately bindable so profiling endpoints never face the
// service's own clients.
//
// Cluster mode: give every node the same -peers list (its own advertised
// address included) and each node owns a deterministic shard of the graph
// space by consistent hashing on graph content IDs. Any node accepts any
// request — work it does not own is forwarded to the owner — so a load
// balancer can spray requests across the whole cluster:
//
//	mincutd -addr :8080 -advertise host1:8080 \
//	        -peers host1:8080,host2:8080,host3:8080
//
// On SIGTERM or SIGINT the server stops accepting work, finishes in-flight
// requests and jobs, and exits; jobs still running when -drain-timeout
// expires are canceled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service/httpapi"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/service/store"
	"repro/internal/trace"
)

// version identifies the build on /healthz, in mincutd_build_info, and in
// the startup log line. Override at build time with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/mincutd
var version = "dev"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "solver worker pool size")
	cacheBytes := flag.Int64("graph-cache-bytes", 1<<30, "graph registry budget in bytes, 8 per vertex plus 16 per edge (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs")
	dataDir := flag.String("data-dir", "", "directory for the persistent graph store (empty = memory-only, graphs lost on restart)")
	maxDiskBytes := flag.Int64("max-disk-bytes", 0, "disk budget for the graph store; uploads are rejected past it (0 = unbounded)")
	classWeights := flag.String("class-weights", "", `per-class dispatch weights, e.g. "interactive=8,batch=4,background=1" (unlisted classes keep their defaults)`)
	classCaps := flag.String("class-queue-caps", "", `per-class queued-job caps, e.g. "batch=1000,background=5000"; submissions past a cap get 429 (0/unlisted = unbounded)`)
	maxQueue := flag.Int("max-queue", 0, "total queued-job bound across classes; submissions past it get 429 (0 = unbounded)")
	logFormat := flag.String("log-format", "text", `log output format: "text" or "json"`)
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof profiling endpoints (empty = disabled)")
	traceBuffer := flag.Int("trace-buffer", 256, "finished solve traces retained for GET /v1/traces (0 = tracing disabled)")
	traceSlow := flag.Duration("trace-slow-threshold", 0, "log one structured line per solve slower than this (0 = disabled)")
	peers := flag.String("peers", "", `static cluster member list, e.g. "host1:8080,host2:8080,host3:8080" (empty = single-node); every node must be given the same list`)
	advertise := flag.String("advertise", "", "this node's address as it appears in -peers (required with -peers)")
	clusterVNodes := flag.Int("cluster-vnodes", 0, "virtual nodes per member on the placement ring (0 = 256); must match across the cluster")
	peerProbe := flag.Duration("peer-probe-interval", 2*time.Second, "how often peers are health-probed via /healthz")
	peerRetries := flag.Int("peer-retries", 2, "re-dials after a connection-level forward failure (-1 = none); HTTP error responses are never retried")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mincutd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	// Weights must be >= 1 (a zero weight would otherwise be silently
	// replaced by the class default — sched treats non-positive weights
	// as "use the default"); caps allow 0, which means unbounded.
	weights, err := parseClassInts(*classWeights, 1)
	if err != nil {
		fatal("bad -class-weights", "error", err)
	}
	caps, err := parseClassInts(*classCaps, 0)
	if err != nil {
		fatal("bad -class-queue-caps", "error", err)
	}
	if *traceBuffer < 0 {
		fatal("bad -trace-buffer", "error", "must be >= 0")
	}
	if err := run(config{
		addr:         *addr,
		workers:      *workers,
		cacheBytes:   *cacheBytes,
		drainTimeout: *drainTimeout,
		dataDir:      *dataDir,
		maxDiskBytes: *maxDiskBytes,
		classWeights: weights,
		classCaps:    caps,
		maxQueue:     *maxQueue,
		debugAddr:    *debugAddr,
		traceBuffer:  *traceBuffer,
		traceSlow:    *traceSlow,
		peers:        parseList(*peers),
		advertise:    *advertise,
		vnodes:       *clusterVNodes,
		peerProbe:    *peerProbe,
		peerRetries:  *peerRetries,
		logger:       logger,
	}, nil); err != nil {
		fatal("exiting", "error", err)
	}
}

// newLogger builds the process logger in the requested format, writing to
// stderr like the stdlib logger it replaces.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf(`bad -log-format %q (want "text" or "json")`, format)
}

// parseClassInts parses "class=n,class=n" lists for -class-weights
// (minVal 1) and -class-queue-caps (minVal 0). The empty string is an
// empty map (all defaults).
func parseClassInts(s string, minVal int) (map[sched.Class]int, error) {
	out := make(map[sched.Class]int)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want class=n)", part)
		}
		class, err := sched.ParseClass(strings.TrimSpace(name))
		if err != nil || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("bad entry %q: unknown class %q", part, name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < minVal {
			return nil, fmt.Errorf("bad entry %q: value must be an integer >= %d", part, minVal)
		}
		out[class] = n
	}
	return out, nil
}

// config carries the flag values into run.
type config struct {
	addr         string
	workers      int
	cacheBytes   int64
	drainTimeout time.Duration
	dataDir      string
	maxDiskBytes int64
	classWeights map[sched.Class]int
	classCaps    map[sched.Class]int
	maxQueue     int
	debugAddr    string
	traceBuffer  int
	traceSlow    time.Duration
	peers        []string // static member list; empty = single-node
	advertise    string   // this node's address within peers
	vnodes       int
	peerProbe    time.Duration
	peerRetries  int
	logger       *slog.Logger // nil means slog.Default()
}

// parseList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func parseList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// jobIDPrefix derives the per-node job-ID prefix from the advertised
// address: a short stable hash, so job IDs are unique across the cluster
// (peers can route an unknown job ID to the node that minted it) without
// leaking raw host:port strings into IDs.
func jobIDPrefix(advertise string) string {
	h := fnv.New32a()
	_, _ = h.Write([]byte(advertise))
	return fmt.Sprintf("%08x-", h.Sum32())
}

// debugHandler is the pprof route table, registered explicitly on a
// private mux (importing net/http/pprof for its DefaultServeMux side
// effect would expose the profiles on the service listener too).
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// run starts the service and blocks until the listener fails or a
// termination signal completes the drain. If ready is non-nil, the bound
// address is sent on it once the server accepts connections (used by
// tests, which listen on port 0).
func run(cfg config, ready chan<- string) error {
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	var st *store.Store
	if cfg.dataDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: cfg.dataDir, MaxDiskBytes: cfg.maxDiskBytes, Log: logger})
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		defer st.Close()
		ss := st.Stats()
		logger.Info("store recovered", "dir", cfg.dataDir,
			"graphs", ss.Recovered, "segments", ss.Segments, "bytes", ss.Bytes, "corrupt_tails", ss.CorruptTail)
	}
	var backend registry.Backend
	if st != nil {
		backend = st
	}
	var ring *trace.Ring
	if cfg.traceBuffer > 0 {
		ring = trace.NewRing(cfg.traceBuffer)
	}
	clustered := len(cfg.peers) > 0
	if clustered && cfg.advertise == "" {
		return fmt.Errorf("-peers requires -advertise (this node's address within the peer list)")
	}
	idPrefix := ""
	if clustered {
		idPrefix = jobIDPrefix(cfg.advertise)
	}
	reg := registry.New(cfg.cacheBytes, backend)
	sch := sched.New(sched.Config{
		Workers:        cfg.workers,
		ClassWeights:   cfg.classWeights,
		ClassQueueCaps: cfg.classCaps,
		MaxQueue:       cfg.maxQueue,
		Traces:         ring,
		SlowSolve:      cfg.traceSlow,
		Logger:         logger,
		IDPrefix:       idPrefix,
	})
	apiOpts := httpapi.Options{Traces: ring, Logger: logger, Version: version}
	if clustered {
		node, err := cluster.New(cluster.Options{
			Self:          cfg.advertise,
			Members:       cfg.peers,
			VNodes:        cfg.vnodes,
			Retries:       cfg.peerRetries,
			ProbeInterval: cfg.peerProbe,
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		apiOpts.Cluster = node
		logger.Info("cluster mode", "self", cfg.advertise, "members", node.Ring().Members(),
			"vnodes", node.Ring().VNodes(), "job_id_prefix", idPrefix)
	}
	api := httpapi.New(reg, sch, st, apiOpts)
	srv := &http.Server{Handler: api.Handler()}

	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listen: %w", err)
		}
		defer dln.Close()
		go func() {
			if err := http.Serve(dln, debugHandler()); err != nil && !errors.Is(err, net.ErrClosed) {
				logger.Error("debug listener failed", "error", err)
			}
		}()
		logger.Info("pprof debug listener on", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "version", version, "go_version", runtime.Version(),
		"workers", cfg.workers, "graph_cache_bytes", cfg.cacheBytes, "trace_buffer", cfg.traceBuffer)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case got := <-sig:
		logger.Info("draining on signal", "signal", got.String(), "timeout", cfg.drainTimeout)
	}
	api.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// First finish in-flight HTTP requests (waiters), then in-flight jobs.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "error", err)
	}
	if err := sch.Shutdown(ctx); err != nil {
		return fmt.Errorf("scheduler drain: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}
