// Package cluster turns a set of independent mincutd processes into one
// sharded service. Placement is consistent hashing over a static member
// list: every graph lives on the node its content hash maps to, every
// node builds the identical ring from the same -peers list, and any node
// accepts any request — the HTTP router forwards work it does not own to
// the owner over the same API external clients use.
//
// The package is placement and transport only: the Ring, one Peer per
// remote member (forwards with bounded retries on connection errors and
// per-peer health gating), and the Node that holds them and runs the
// /healthz probes. It never runs or routes a solve. Deciding where a
// request runs belongs to the router, and a node serves its own shard
// through its own scheduler exactly as a single-node deployment does.
//
// Results are transport-neutral by construction: the owning node runs
// the identical deterministic solver whichever node the request entered
// through, so a Result is bit-for-bit identical across entry points.
// Membership is static (no failure takeover): when a peer is down, its
// shard answers 502 and every other shard keeps working.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Options configures a Node.
type Options struct {
	// Self is this node's advertised host:port — the address peers dial
	// and the identity used on the ring. It must appear in Members.
	Self string
	// Members is the full static member list, including Self.
	Members []string
	// VNodes is the virtual-node count per member (0 = a sensible
	// default). Every node must use the same value.
	VNodes int
	// Retries is how many times a forward is re-dialed after a
	// connection-level failure (0 = default 2; negative = no retries).
	Retries int
	// ProbeInterval is the health-probe period (0 = 2s).
	ProbeInterval time.Duration
	// DialTimeout bounds connection establishment to a peer (0 = 2s).
	// Requests themselves are unbounded — a forwarded solve may
	// legitimately run for minutes; the caller's context bounds it.
	DialTimeout time.Duration
	// Transport overrides the HTTP transport used for peer traffic
	// (tests inject failures with it); nil builds a dialer-timeout one.
	Transport http.RoundTripper
	// Logger receives peer up/down transitions; nil means slog.Default().
	Logger *slog.Logger
}

// Node is one member of the cluster: the ring, the peer clients, and
// their health prober.
type Node struct {
	self  string
	ring  *Ring
	peers map[string]*Peer // keyed by addr; excludes self
	log   *slog.Logger

	probeEvery time.Duration
	stopProbe  context.CancelFunc
	probeWG    sync.WaitGroup
}

// New builds the node and starts its health prober. Close stops it.
func New(opt Options) (*Node, error) {
	if opt.Self == "" {
		return nil, fmt.Errorf("cluster: missing self address")
	}
	ring := NewRing(opt.Members, opt.VNodes)
	selfOnRing := false
	for _, m := range ring.Members() {
		if m == opt.Self {
			selfOnRing = true
		}
	}
	if !selfOnRing {
		return nil, fmt.Errorf("cluster: self %q is not in the member list %v", opt.Self, ring.Members())
	}
	if opt.Retries == 0 {
		opt.Retries = 2
	} else if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.ProbeInterval <= 0 {
		opt.ProbeInterval = 2 * time.Second
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 2 * time.Second
	}
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	transport := opt.Transport
	if transport == nil {
		transport = &http.Transport{
			DialContext:         (&net.Dialer{Timeout: opt.DialTimeout}).DialContext,
			MaxIdleConnsPerHost: 16,
		}
	}
	client := &http.Client{Transport: transport}
	n := &Node{
		self:       opt.Self,
		ring:       ring,
		peers:      make(map[string]*Peer),
		log:        opt.Logger,
		probeEvery: opt.ProbeInterval,
	}
	for _, m := range ring.Members() {
		if m == opt.Self {
			continue
		}
		n.peers[m] = &Peer{addr: m, client: client, retries: opt.Retries, backoff: 50 * time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.stopProbe = cancel
	n.probeWG.Add(1)
	go n.probeLoop(ctx)
	return n, nil
}

// Close stops the health prober.
func (n *Node) Close() {
	n.stopProbe()
	n.probeWG.Wait()
}

// probeLoop probes every peer each probeEvery tick and logs transitions.
func (n *Node) probeLoop(ctx context.Context) {
	defer n.probeWG.Done()
	t := time.NewTicker(n.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.probeAll(ctx)
		}
	}
}

// probeAll runs one probe round (exposed to tests via the package).
func (n *Node) probeAll(ctx context.Context) {
	for _, p := range n.peers {
		pctx, cancel := context.WithTimeout(ctx, n.probeEvery)
		wasUp := p.Up()
		up := p.probe(pctx)
		cancel()
		if up != wasUp {
			if up {
				n.log.Info("cluster peer up", "peer", p.addr)
			} else {
				n.log.Warn("cluster peer down", "peer", p.addr)
			}
		}
	}
}

// Self returns this node's advertised address.
func (n *Node) Self() string { return n.self }

// Ring returns the placement ring (immutable).
func (n *Node) Ring() *Ring { return n.ring }

// Owner returns the member that owns graphID.
func (n *Node) Owner(graphID string) string { return n.ring.Owner(graphID) }

// Peer returns the client for addr (nil for self or unknown members).
func (n *Node) Peer(addr string) *Peer { return n.peers[addr] }

// PeerStats is one peer's forwarding counters for /metrics.
type PeerStats struct {
	Addr      string
	Up        bool
	Forwarded int64
	Failed    int64
}

// Stats is a snapshot of the node's cluster state for /metrics and
// /healthz.
type Stats struct {
	Self    string
	Members []string
	VNodes  int
	Peers   []PeerStats // sorted by address
}

// Stats returns the current cluster snapshot.
func (n *Node) Stats() Stats {
	st := Stats{Self: n.self, Members: n.ring.Members(), VNodes: n.ring.VNodes()}
	for _, p := range n.peers {
		st.Peers = append(st.Peers, PeerStats{
			Addr:      p.addr,
			Up:        p.Up(),
			Forwarded: p.forwarded.Load(),
			Failed:    p.failed.Load(),
		})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	return st
}
