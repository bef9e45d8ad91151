package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/trace"
)

// clusterNode is one in-process cluster member: a full server stack on a
// real listener, because cluster routing talks real HTTP between nodes.
type clusterNode struct {
	addr string
	sch  *sched.Scheduler
	node *cluster.Node
	api  *Server
	srv  *http.Server
	ln   net.Listener
}

// newTestCluster boots size members on loopback listeners and returns
// them ready to serve. Each node has its own registry, scheduler, trace
// ring, and a distinct job-ID prefix, exactly like separate processes.
func newTestCluster(t *testing.T, size int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	members := make([]string, size)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &clusterNode{ln: ln, addr: ln.Addr().String()}
		members[i] = ln.Addr().String()
	}
	for i, cn := range nodes {
		reg := registry.New(0, nil)
		ring := trace.NewRing(64)
		cn.sch = sched.New(sched.Config{Workers: 2, Traces: ring, IDPrefix: fmt.Sprintf("n%d-", i)})
		node, err := cluster.New(cluster.Options{
			Self:          cn.addr,
			Members:       members,
			ProbeInterval: time.Hour, // health transitions are driven by forwards in these tests
		})
		if err != nil {
			t.Fatal(err)
		}
		cn.node = node
		cn.api = New(reg, cn.sch, nil, Options{Traces: ring, Cluster: node})
		cn.srv = &http.Server{Handler: cn.api.Handler()}
		go func(cn *clusterNode) { _ = cn.srv.Serve(cn.ln) }(cn)
	}
	t.Cleanup(func() {
		for _, cn := range nodes {
			cn.node.Close()
			_ = cn.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := cn.sch.Shutdown(ctx); err != nil {
				t.Errorf("scheduler shutdown: %v", err)
			}
			cancel()
		}
	})
	return nodes
}

// clusterDo sends one request to a specific node and decodes the JSON
// response body into out (unless out is nil).
func clusterDo(t *testing.T, addr, method, path, contentType string, body []byte, headers map[string]string, out any) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, buf.String(), err)
		}
	}
	return resp, buf.Bytes()
}

// cycleGraphText builds the n-cycle upload body with a weight tweak so
// different seeds of the generator produce different content hashes
// (and therefore different owners). Minimum cut = 2*minWeight.
func cycleGraphText(n int, minWeight int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cut %d %d\n", n, n)
	for i := 0; i < n; i++ {
		w := minWeight + int64(i%3)
		fmt.Fprintf(&b, "e %d %d %d\n", i, (i+1)%n, w)
	}
	return b.String()
}

// uploadOwnedBy uploads generated graphs through via until one lands on
// the wanted owner, returning its ID and its minimum cut value (2*w for
// the w used). Placement is content-addressed, so the test varies content
// until the hash falls in the right shard.
func uploadOwnedBy(t *testing.T, nodes []*clusterNode, via, owner int) (string, int64) {
	t.Helper()
	for w := int64(1); w < 200; w++ {
		gr := struct {
			ID   string `json:"id"`
			Node string `json:"node"`
		}{}
		resp, _ := clusterDo(t, nodes[via].addr, http.MethodPost, "/v1/graphs", "", []byte(cycleGraphText(8, w)), nil, &gr)
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("upload: status %d", resp.StatusCode)
		}
		if gr.Node == nodes[owner].addr {
			return gr.ID, 2 * w
		}
	}
	t.Fatal("no generated graph hashed onto the wanted owner")
	return "", 0
}

// TestClusterSolveThroughAnyNode pins the cluster's result-neutrality
// contract: the same solve through the owner and through a non-owner
// returns byte-identical results, and responses report the owner as the
// serving node.
func TestClusterSolveThroughAnyNode(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id, want := uploadOwnedBy(t, nodes, 0, 1) // stored on node 1, uploaded via node 0

	var bodies []map[string]any
	for _, via := range nodes {
		jr := jobResponse{}
		resp, raw := clusterDo(t, via.addr, http.MethodPost, "/v1/graphs/"+id+"/mincut", "application/json",
			[]byte(`{"seed":1,"want_partition":true}`), nil, &jr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve via %s: status %d: %s", via.addr, resp.StatusCode, raw)
		}
		if jr.Value == nil || *jr.Value != want {
			t.Fatalf("solve via %s: value %v, want %d", via.addr, jr.Value, want)
		}
		if jr.Node != nodes[1].addr {
			t.Fatalf("solve via %s reported node %q, want owner %s", via.addr, jr.Node, nodes[1].addr)
		}
		if got := resp.Header.Get(cluster.NodeHeader); got != nodes[1].addr {
			t.Fatalf("solve via %s: %s = %q, want owner", via.addr, cluster.NodeHeader, got)
		}
		if !strings.HasPrefix(jr.JobID, "n1-") {
			t.Fatalf("job ID %q does not carry the owner's prefix", jr.JobID)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		// The owner legitimately reports a cache hit on the repeat solve;
		// everything else must be identical through either entry node.
		delete(m, "cached")
		bodies = append(bodies, m)
	}
	if !reflect.DeepEqual(bodies[0], bodies[1]) {
		t.Fatalf("solve responses differ by entry node:\n%v\n%v", bodies[0], bodies[1])
	}

	// The graph is visible through both nodes too.
	for _, via := range nodes {
		gr := graphResponse{}
		resp, _ := clusterDo(t, via.addr, http.MethodGet, "/v1/graphs/"+id, "", nil, nil, &gr)
		if resp.StatusCode != http.StatusOK || gr.ID != id || gr.Node != nodes[1].addr {
			t.Fatalf("graph info via %s = (%d, %+v), want the owner's record", via.addr, resp.StatusCode, gr)
		}
	}
}

// TestClusterRequestIDInOwnerTrace: a solve forwarded by a non-owner
// lands in the owner's trace ring carrying the original request ID and
// the forwarding node, so a cross-node solve is debuggable end to end.
func TestClusterRequestIDInOwnerTrace(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id, _ := uploadOwnedBy(t, nodes, 0, 1)

	jr := jobResponse{}
	resp, _ := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed":3}`), map[string]string{"X-Request-Id": "rid-cross-node"}, &jr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	_, raw := clusterDo(t, nodes[1].addr, http.MethodGet, "/v1/traces/"+jr.JobID, "", nil, nil, nil)
	if !strings.Contains(string(raw), "rid-cross-node") {
		t.Errorf("owner trace %s does not carry the forwarded request ID: %s", jr.JobID, raw)
	}
	if !strings.Contains(string(raw), nodes[0].addr) {
		t.Errorf("owner trace %s does not name the forwarding node %s: %s", jr.JobID, nodes[0].addr, raw)
	}
}

// TestClusterJobLookupAcrossNodes: job IDs are node-prefixed, and a job
// status query through the wrong node falls back to the peer that minted
// the ID.
func TestClusterJobLookupAcrossNodes(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id, _ := uploadOwnedBy(t, nodes, 0, 1)
	jr := jobResponse{}
	if resp, _ := clusterDo(t, nodes[1].addr, http.MethodPost, "/v1/graphs/"+id+"/mincut", "application/json",
		[]byte(`{"seed":4}`), nil, &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d", resp.StatusCode)
	}
	got := jobResponse{}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodGet, "/v1/jobs/"+jr.JobID, "", nil, nil, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup via non-owner: status %d: %s", resp.StatusCode, raw)
	}
	if got.JobID != jr.JobID || got.Status != string(sched.StateDone) {
		t.Fatalf("job lookup via non-owner = %+v, want done job %s", got, jr.JobID)
	}
}

// TestClusterBatchFanout: the multi-graph batch endpoint fans solves out
// to each graph's owner concurrently and merges results in input order,
// whichever node accepted the batch.
func TestClusterBatchFanout(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id0, want0 := uploadOwnedBy(t, nodes, 0, 0)
	id1, want1 := uploadOwnedBy(t, nodes, 0, 1)
	wants := map[string]int64{id0: want0, id1: want1}

	req := fmt.Sprintf(`{"items":[{"graph_id":%q,"seed":1},{"graph_id":%q,"seed":1},{"graph_id":"sha256:missing","seed":1}]}`, id1, id0)
	var out struct {
		Results []batchEntry `json:"results"`
	}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/mincut:batch", "application/json", []byte(req), nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	// In input order: remote graph first, local second, failure last.
	if out.Results[0].GraphID != id1 || out.Results[0].Node != nodes[1].addr || out.Results[0].Status != "done" {
		t.Errorf("entry 0 = %+v, want done on %s", out.Results[0], nodes[1].addr)
	}
	if out.Results[1].GraphID != id0 || out.Results[1].Node != nodes[0].addr || out.Results[1].Status != "done" {
		t.Errorf("entry 1 = %+v, want done on %s", out.Results[1], nodes[0].addr)
	}
	for _, e := range out.Results[:2] {
		if e.Value == nil || *e.Value != wants[e.GraphID] {
			t.Errorf("entry %s value = %v, want %d", e.GraphID, e.Value, wants[e.GraphID])
		}
	}
	if out.Results[2].Status == "done" || out.Results[2].Error == "" {
		t.Errorf("entry 2 = %+v, want a per-item failure for the unknown graph", out.Results[2])
	}
}

// TestClusterPeerDown: killing one node takes out exactly its shard —
// solves for its graphs answer 502 through the survivor, solves for the
// survivor's own graphs keep working.
func TestClusterPeerDown(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id0, want0 := uploadOwnedBy(t, nodes, 0, 0)
	id1, _ := uploadOwnedBy(t, nodes, 0, 1)

	_ = nodes[1].srv.Close()
	nodes[1].ln.Close()

	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/graphs/"+id1+"/mincut", "application/json", []byte(`{"seed":9}`), nil, nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("solve for dead shard: status %d, want 502: %s", resp.StatusCode, raw)
	}
	jr := jobResponse{}
	if resp, _ := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/graphs/"+id0+"/mincut", "application/json", []byte(`{"seed":9}`), nil, &jr); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve for surviving shard: status %d, want 200", resp.StatusCode)
	}
	if jr.Value == nil || *jr.Value != want0 {
		t.Fatalf("surviving shard value = %v, want %d", jr.Value, want0)
	}
	// The failed forward gated the dead peer; metrics expose it.
	_, metrics := clusterDo(t, nodes[0].addr, http.MethodGet, "/metrics", "", nil, nil, nil)
	want := fmt.Sprintf("mincutd_cluster_peer_up{peer=%q} 0", nodes[1].addr)
	if !strings.Contains(string(metrics), want) {
		t.Errorf("metrics missing %q after forward failure", want)
	}
}

// peerCounter reads one per-peer cluster counter (forwarded_total or
// forward_failed_total) from via's /metrics.
func peerCounter(t *testing.T, via *clusterNode, name, peer string) int64 {
	t.Helper()
	_, raw := clusterDo(t, via.addr, http.MethodGet, "/metrics", "", nil, nil, nil)
	prefix := fmt.Sprintf("mincutd_cluster_%s{peer=%q} ", name, peer)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics of %s lacks %s", via.addr, prefix)
	return 0
}

// unknownOwnedBy returns a well-formed graph ID nobody uploaded that the
// ring places on owner.
func unknownOwnedBy(t *testing.T, nodes []*clusterNode, owner int) string {
	t.Helper()
	for k := 0; k < 10000; k++ {
		id := fmt.Sprintf("sha256:%064x", k)
		if nodes[0].node.Owner(id) == nodes[owner].addr {
			return id
		}
	}
	t.Fatal("no graph ID hashed onto the wanted owner")
	return ""
}

// TestClusterBatchOneForwardPerOwner: a cross-shard batch through a
// non-owner sends each remote owner exactly one forwarded sub-batch,
// serves its own items locally without touching the network, and
// returns every entry in input order exactly as the owner reports the
// item — the owner's job, engine, value, partition and tree count — with
// the request ID and the forwarding node in the owner's trace. An
// unknown graph on a remote shard is rejected by its owner, as it would
// be locally.
func TestClusterBatchOneForwardPerOwner(t *testing.T) {
	nodes := newTestCluster(t, 3)
	id0, want0 := uploadOwnedBy(t, nodes, 0, 0)
	id1, want1 := uploadOwnedBy(t, nodes, 0, 1)
	id2, want2 := uploadOwnedBy(t, nodes, 0, 2)
	missing := unknownOwnedBy(t, nodes, 2)
	peers := []string{nodes[1].addr, nodes[2].addr}
	before := map[string]int64{}
	for _, p := range peers {
		before[p] = peerCounter(t, nodes[0], "forwarded_total", p)
	}

	type item struct {
		id    string
		seed  int64
		owner int
		want  int64
	}
	items := []item{
		{id1, 31, 1, want1}, {id0, 31, 0, want0}, {id2, 31, 2, want2},
		{id1, 32, 1, want1}, {missing, 31, 2, 0}, {id2, 32, 2, want2},
	}
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = fmt.Sprintf(`{"graph_id":%q,"seed":%d,"want_partition":true}`, it.id, it.seed)
	}
	body := `{"items":[` + strings.Join(parts, ",") + `]}`
	var out struct {
		Results []batchEntry `json:"results"`
	}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/mincut:batch", "application/json", []byte(body),
		map[string]string{"X-Request-Id": "rid-sub-batch"}, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != len(items) {
		t.Fatalf("batch: status %d, %d entries: %s", resp.StatusCode, len(out.Results), raw)
	}
	for _, p := range peers {
		if got := peerCounter(t, nodes[0], "forwarded_total", p) - before[p]; got != 1 {
			t.Errorf("batch forwarded %d requests to %s, want one sub-batch", got, p)
		}
	}
	for i, it := range items {
		e := out.Results[i]
		owner := nodes[it.owner]
		if e.GraphID != it.id || e.Seed != it.seed || e.Node != owner.addr {
			t.Errorf("entry %d = %+v, want %s seed %d on %s (input order)", i, e, it.id, it.seed, owner.addr)
			continue
		}
		if it.id == missing {
			if e.Status != "rejected" || !strings.Contains(e.Error, "not found") {
				t.Errorf("entry %d for an unknown remote graph = %+v, want rejected by its owner", i, e)
			}
			continue
		}
		if e.Status != string(sched.StateDone) || e.Value == nil || *e.Value != it.want {
			t.Errorf("entry %d = %+v, want done with value %d", i, e, it.want)
			continue
		}
		var job jobResponse
		if resp, _ := clusterDo(t, owner.addr, http.MethodGet, "/v1/jobs/"+e.JobID, "", nil, nil, &job); resp.StatusCode != http.StatusOK {
			t.Errorf("entry %d: owner %s does not know job %q", i, owner.addr, e.JobID)
			continue
		}
		if job.GraphID != it.id || job.Engine != e.Engine || job.Node != e.Node ||
			job.Value == nil || *job.Value != *e.Value || job.TreesScanned != e.TreesScanned ||
			!reflect.DeepEqual(job.InCut, e.InCut) || len(e.InCut) != 8 {
			t.Errorf("entry %d = %+v, owner reports %+v", i, e, job)
		}
		if it.owner != 0 {
			_, trace := clusterDo(t, owner.addr, http.MethodGet, "/v1/traces/"+e.JobID, "", nil, nil, nil)
			if !strings.Contains(string(trace), "rid-sub-batch") || !strings.Contains(string(trace), nodes[0].addr) {
				t.Errorf("owner trace of %s lacks the request ID or the forwarding node: %s", e.JobID, trace)
			}
		}
	}
}

// TestClusterForwardedBatchServedLocally: a cross-shard batch another
// node already forwarded is served by the receiving node alone — its
// items are solved locally and an item this node does not hold is
// rejected, never forwarded again.
func TestClusterForwardedBatchServedLocally(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id0, want0 := uploadOwnedBy(t, nodes, 0, 0)
	id1, _ := uploadOwnedBy(t, nodes, 0, 1)
	before := peerCounter(t, nodes[0], "forwarded_total", nodes[1].addr)

	body := fmt.Sprintf(`{"items":[{"graph_id":%q,"seed":5},{"graph_id":%q,"seed":5}]}`, id0, id1)
	var out struct {
		Results []batchEntry `json:"results"`
	}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/mincut:batch", "application/json", []byte(body),
		map[string]string{cluster.ForwardedFromHeader: nodes[1].addr}, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("forwarded batch: status %d: %s", resp.StatusCode, raw)
	}
	if e := out.Results[0]; e.Status != string(sched.StateDone) || e.Value == nil || *e.Value != want0 || e.Node != nodes[0].addr {
		t.Errorf("local entry = %+v, want done with value %d on %s", e, want0, nodes[0].addr)
	}
	if e := out.Results[1]; e.Status != "rejected" || e.Node != nodes[0].addr {
		t.Errorf("entry for a graph held elsewhere = %+v, want rejected on %s", e, nodes[0].addr)
	}
	if got := peerCounter(t, nodes[0], "forwarded_total", nodes[1].addr); got != before {
		t.Errorf("forwarded batch was forwarded again (%d -> %d)", before, got)
	}
}

// TestClusterBatchDeadShard: with one peer dead, a cross-shard batch
// fails exactly that shard's entries, naming the forward, and still
// returns every other entry done, in order. The failed forward gates the
// peer, so the next batch fails the shard without dialing it.
func TestClusterBatchDeadShard(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id0, want0 := uploadOwnedBy(t, nodes, 0, 0)
	id1, _ := uploadOwnedBy(t, nodes, 0, 1)
	_ = nodes[1].srv.Close()
	nodes[1].ln.Close()
	dead := nodes[1].addr

	body := []byte(fmt.Sprintf(`{"items":[{"graph_id":%q,"seed":1},{"graph_id":%q,"seed":1},{"graph_id":%q,"seed":2},{"graph_id":%q,"seed":2}]}`,
		id1, id0, id1, id0))
	for round := 0; round < 2; round++ {
		fwd := peerCounter(t, nodes[0], "forwarded_total", dead)
		failed := peerCounter(t, nodes[0], "forward_failed_total", dead)
		var out struct {
			Results []batchEntry `json:"results"`
		}
		resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/mincut:batch", "application/json", body, nil, &out)
		if resp.StatusCode != http.StatusOK || len(out.Results) != 4 {
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, raw)
		}
		for i, e := range out.Results {
			if i%2 == 0 {
				if e.GraphID != id1 || e.Status != "failed" || e.Node != dead || !strings.Contains(e.Error, "forward to "+dead) {
					t.Errorf("round %d entry %d = %+v, want failed naming the forward to %s", round, i, e, dead)
				}
				continue
			}
			if e.GraphID != id0 || e.Status != string(sched.StateDone) || e.Value == nil || *e.Value != want0 {
				t.Errorf("round %d entry %d = %+v, want done with value %d", round, i, e, want0)
			}
		}
		if got := peerCounter(t, nodes[0], "forward_failed_total", dead); got != failed+1 {
			t.Errorf("round %d: forward_failed_total %d -> %d, want one failed forward", round, failed, got)
		}
		if round == 1 {
			if got := peerCounter(t, nodes[0], "forwarded_total", dead); got != fwd {
				t.Errorf("batch dialed the gated peer (forwarded_total %d -> %d)", fwd, got)
			}
		}
	}
}

// TestClusterBatchTimeoutKeepsPeerUp: a remote item still running when
// the batch's timeout_ms expires comes back "unfinished", and the
// abandoned forward neither gates the healthy owner nor counts as a
// failed forward.
func TestClusterBatchTimeoutKeepsPeerUp(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id1, _ := uploadOwnedBy(t, nodes, 0, 1)
	owner := nodes[1].addr
	failed := peerCounter(t, nodes[0], "forward_failed_total", owner)

	// A huge boost keeps the owner busy far past the deadline; auto would
	// pick the exact engine, which ignores boost.
	body := fmt.Sprintf(`{"items":[{"graph_id":%q,"seed":999,"boost":1048576,"engine":"geissmann"}],"timeout_ms":200}`, id1)
	var out struct {
		Results []batchEntry `json:"results"`
	}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/mincut:batch", "application/json", []byte(body), nil, &out)
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}
	if e := out.Results[0]; e.Status != "unfinished" || e.Node != owner {
		t.Errorf("entry = %+v, want unfinished on %s", e, owner)
	}
	if got := peerCounter(t, nodes[0], "forward_failed_total", owner); got != failed {
		t.Errorf("forward_failed_total %d -> %d after a timeout, want unchanged", failed, got)
	}
	_, metrics := clusterDo(t, nodes[0].addr, http.MethodGet, "/metrics", "", nil, nil, nil)
	if want := fmt.Sprintf("mincutd_cluster_peer_up{peer=%q} 1", owner); !strings.Contains(string(metrics), want) {
		t.Errorf("metrics lack %q: a batch timeout gated the owner", want)
	}
}

// TestClusterBatchUploadSharding: a batch upload through one node spreads
// graphs across shards by content hash and reports each item's node, in
// input order.
func TestClusterBatchUploadSharding(t *testing.T) {
	nodes := newTestCluster(t, 2)
	items := make([]string, 12)
	for i := range items {
		items[i] = fmt.Sprintf(`{"text":%q}`, cycleGraphText(8, int64(i+1)))
	}
	body := `{"graphs":[` + strings.Join(items, ",") + `]}`
	var out struct {
		Results []batchUploadEntry `json:"results"`
	}
	resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/graphs:batch", "application/json", []byte(body), nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch upload: status %d: %s", resp.StatusCode, raw)
	}
	if len(out.Results) != len(items) {
		t.Fatalf("batch upload returned %d results, want %d", len(out.Results), len(items))
	}
	seen := map[string]int{}
	for i, e := range out.Results {
		if e.Index != i || e.Status != "created" || e.ID == "" {
			t.Fatalf("entry %d = %+v, want created in input order", i, e)
		}
		seen[e.Node]++
		// The reported node must agree with the ring.
		if want := nodes[0].node.Owner(e.ID); e.Node != want {
			t.Errorf("entry %d stored on %q, ring says %q", i, e.Node, want)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("12 distinct graphs all hashed to one shard: %v", seen)
	}
	// Every graph is now retrievable through the non-uploading node too.
	for _, e := range out.Results {
		gr := graphResponse{}
		if resp, _ := clusterDo(t, nodes[1].addr, http.MethodGet, "/v1/graphs/"+e.ID, "", nil, nil, &gr); resp.StatusCode != http.StatusOK {
			t.Errorf("graph %s not reachable via node 1: status %d", e.ID, resp.StatusCode)
		}
	}
}

// TestUploadDecodersAgree: a single node and either node of a cluster
// decode an upload body the same way, so they answer it with the same
// status and the same IDs. A JSON body, single or batch, must be exactly
// one value: whitespace may follow it, anything else is a 400.
func TestUploadDecodersAgree(t *testing.T) {
	single := newTestServer(t, 1)
	nodes := newTestCluster(t, 2)
	addrs := []string{strings.TrimPrefix(single.URL, "http://"), nodes[0].addr, nodes[1].addr}
	const graphJSON = `{"n": 3, "edges": [[0, 1, 5], [1, 2, 7], [2, 0, 9]]}`
	const batch = `{"graphs": [{"text": "p cut 2 1\ne 0 1 4\n"}, {"n": 2, "edges": [[0, 1, 6]]}]}`
	for _, tc := range []struct {
		name, path, contentType, body string
		want                          int
	}{
		{"valid JSON", "/v1/graphs", "application/json", graphJSON, http.StatusCreated},
		{"JSON with trailing bytes", "/v1/graphs", "application/json", graphJSON + " trailing", http.StatusBadRequest},
		{"JSON with trailing whitespace", "/v1/graphs", "application/json", graphJSON + " \n\t\r\n", http.StatusCreated},
		{"truncated JSON", "/v1/graphs", "application/json", graphJSON[:30], http.StatusBadRequest},
		{"valid text", "/v1/graphs", "text/plain", "p cut 3 3\ne 0 1 5\ne 1 2 7\ne 2 0 9\n", http.StatusCreated},
		{"text with a fourth field", "/v1/graphs", "text/plain", "p cut 3 1\ne 0 1 5 6\n", http.StatusBadRequest},
		{"batch", "/v1/graphs:batch", "application/json", batch, http.StatusOK},
		{"batch with trailing bytes", "/v1/graphs:batch", "application/json", batch + `{"graphs": []}`, http.StatusBadRequest},
		{"batch with trailing whitespace", "/v1/graphs:batch", "application/json", batch + "\n", http.StatusOK},
	} {
		var answers []string
		for _, addr := range addrs {
			var out struct {
				ID      string             `json:"id"`
				Results []batchUploadEntry `json:"results"`
			}
			resp, raw := clusterDo(t, addr, http.MethodPost, tc.path, tc.contentType, []byte(tc.body), nil, &out)
			if resp.StatusCode != tc.want {
				t.Errorf("%s via %s: %d %s, want %d", tc.name, addr, resp.StatusCode, raw, tc.want)
			}
			ids := []string{out.ID}
			answer := fmt.Sprint(resp.StatusCode, " ", out.ID)
			for _, e := range out.Results {
				ids = append(ids, e.ID)
				answer += fmt.Sprint(" ", e.Status, " ", e.ID)
			}
			answers = append(answers, answer)
			// Delete what was stored, so the next node sees a fresh upload.
			for _, id := range ids {
				if id != "" {
					clusterDo(t, addr, http.MethodDelete, "/v1/graphs/"+id, "", nil, nil, nil)
				}
			}
		}
		if answers[1] != answers[0] || answers[2] != answers[0] {
			t.Errorf("%s: single node answers %q, cluster nodes %q and %q", tc.name, answers[0], answers[1], answers[2])
		}
	}
}

// solveTriangle is the graph the solve-body tests solve, in the JSON
// upload form: a triangle whose minimum cut is 12.
const solveTriangle = `{"n": 3, "edges": [[0, 1, 5], [1, 2, 7], [2, 0, 9]]}`

// solveRoute is one solve route and a valid body for it, "{id}" standing
// for the graph's ID in both. empty is what an empty body answers: the
// single route's defaults, or a batch without items.
type solveRoute struct {
	path, valid string
	empty       int
}

var solveRoutes = []solveRoute{
	{"/v1/graphs/{id}/mincut", `{"seed": 1}`, http.StatusOK},
	{"/v1/graphs/{id}/mincut:batch", `{"seeds": [1]}`, http.StatusBadRequest},
	{"/v1/mincut:batch", `{"items": [{"graph_id": "{id}", "seed": 1}]}`, http.StatusBadRequest},
}

// solveBody is one body a solve route answers with want on every node.
type solveBody struct {
	name, body string
	want       int
}

// bodies returns rt's path for graph id and the bodies every node must
// answer alike on it: the upload routes' one-value rule under the 1 MiB
// solve cap, and timeout_ms bounded so its nanoseconds fit an int64.
func (rt solveRoute) bodies(id string) (string, []solveBody) {
	valid := strings.ReplaceAll(rt.valid, "{id}", id)
	open := strings.TrimSuffix(valid, "}") + ", " // valid, before its closing brace
	return strings.ReplaceAll(rt.path, "{id}", id), []solveBody{
		{"valid", valid, http.StatusOK},
		{"empty", "", rt.empty},
		{"trailing whitespace", valid + " \n\t\r\n", http.StatusOK},
		{"trailing bytes", valid + " trailing", http.StatusBadRequest},
		{"a second value", valid + `{"seed": 2, "boost": -5}`, http.StatusBadRequest},
		{"truncated", valid[:len(valid)-2], http.StatusBadRequest},
		{"timeout_ms at its bound", open + `"timeout_ms": 9223372036854}`, http.StatusOK},
		{"timeout_ms past its bound", open + `"timeout_ms": 9223372036855}`, http.StatusBadRequest},
		{"timeout_ms of MaxInt64", open + `"timeout_ms": 9223372036854775807}`, http.StatusBadRequest},
		{"over 1 MiB", open + `"pad": "` + strings.Repeat("x", maxSolveBytes) + `"}`, http.StatusRequestEntityTooLarge},
	}
}

// TestSolveDecodersAgree: a single node and both nodes of a cluster, the
// graph's owner and the node that relays to it, answer every solve body
// with the same status on all three solve routes.
func TestSolveDecodersAgree(t *testing.T) {
	single := newTestServer(t, 1)
	nodes := newTestCluster(t, 2)
	var gr graphResponse
	if code, raw := single.do(t, http.MethodPost, "/v1/graphs", "application/json", []byte(solveTriangle), &gr); code != http.StatusCreated {
		t.Fatalf("upload to the single node: %d %s", code, raw)
	}
	if resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, "/v1/graphs", "application/json", []byte(solveTriangle), nil, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload to the cluster: %d %s", resp.StatusCode, raw)
	}
	addrs := []string{strings.TrimPrefix(single.URL, "http://"), nodes[0].addr, nodes[1].addr}
	for _, rt := range solveRoutes {
		path, bodies := rt.bodies(gr.ID)
		for _, tc := range bodies {
			for _, addr := range addrs {
				resp, raw := clusterDo(t, addr, http.MethodPost, path, "application/json", []byte(tc.body), nil, nil)
				if resp.StatusCode != tc.want {
					t.Errorf("%s, %s, via %s: %d %.200s, want %d", rt.path, tc.name, addr, resp.StatusCode, raw, tc.want)
				}
			}
		}
	}
}

// TestNonOwnerCapsSolveBody: a node relaying a graph-scoped request reads
// its body under the solve cap, so it answers a body over 1 MiB with a
// 413 itself and never forwards it to the owner.
func TestNonOwnerCapsSolveBody(t *testing.T) {
	nodes := newTestCluster(t, 2)
	id, _ := uploadOwnedBy(t, nodes, 0, 1) // owned by node 1; node 0 relays
	forwarded := peerCounter(t, nodes[0], "forwarded_total", nodes[1].addr)
	body := []byte(`{"seed": 1, "pad": "` + strings.Repeat("x", 2<<20) + `"}`)
	for _, path := range []string{"/v1/graphs/" + id + "/mincut", "/v1/graphs/" + id + "/mincut:batch"} {
		if resp, raw := clusterDo(t, nodes[0].addr, http.MethodPost, path, "application/json", body, nil, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("2 MiB body to %s via the non-owner: %d %.200s, want 413", path, resp.StatusCode, raw)
		}
	}
	if got := peerCounter(t, nodes[0], "forwarded_total", nodes[1].addr); got != forwarded {
		t.Errorf("forwarded_total went from %d to %d: the non-owner relayed an over-cap body", forwarded, got)
	}
}
