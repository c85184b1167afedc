package cluster

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/refgraph"
	"zipg/internal/rpc"
	"zipg/internal/rpq"
	"zipg/internal/store"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
	"zipg/internal/traversal"
)

// callsDuring runs f with telemetry on and returns, per method, the RPCs
// every client in the process issued meanwhile: the test's own and the
// subqueries the servers shipped to each other.
func callsDuring(f func()) map[string]int {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	before := telemetry.TakeSnapshot()
	f()
	calls := map[string]int{}
	for k, v := range telemetry.Delta(before, telemetry.TakeSnapshot()) {
		if m, ok := strings.CutPrefix(k, `zipg_rpc_client_calls_total{method="`); ok {
			calls[strings.TrimSuffix(m, `"}`)] = int(v)
		}
	}
	return calls
}

func total(calls map[string]int) int {
	n := 0
	for _, c := range calls {
		n += c
	}
	return n
}

// TestRPCCountsPerHop: through a 2-server cluster every hop of a
// traversal is one Expand per owner, and every answer is the
// reference's. Reading record by record instead would make the depth-3
// BFS 341 calls, RPQ "ab" from 20 starts 97 and the two-hop query 10
// MatchBatch calls.
func TestRPCCountsPerHop(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 400, 2000)
	_, client := launchTestCluster(t, nodes, edges, ns, es, 2)
	ref := refgraph.New(nodes, edges)

	for d := 1; d <= 3; d++ {
		var got []graphapi.NodeID
		calls := callsDuring(func() { got = traversal.BFS(client, 0, d) })
		t.Logf("depth-%d BFS: %v", d, calls)
		if calls["Expand"] > 2*d || total(calls) != calls["Expand"] {
			t.Errorf("depth-%d BFS made %v, want at most %d Expand calls and nothing else", d, calls, 2*d)
		}
		want := traversal.BFS(ref, 0, d)
		slices.Sort(got)
		slices.Sort(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("depth-%d BFS visited %d nodes, want %d", d, len(got), len(want))
		}
	}

	starts := make([]graphapi.NodeID, 20)
	for i := range starts {
		starts[i] = int64(i)
	}
	ab := rpq.MustParse("ab")
	var pairs []rpq.Pair
	calls := callsDuring(func() { pairs = ab.Eval(client, starts, rpq.Limits{}) })
	t.Logf("RPQ ab from 20 starts: %v", calls)
	if total(calls) > 60 || total(calls) != calls["Expand"] {
		t.Errorf("RPQ ab from 20 starts made %v, want at most 60 Expand calls and nothing else", calls)
	}
	if want := ab.Eval(ref, starts, rpq.Limits{}); !reflect.DeepEqual(pairs, want) {
		t.Fatalf("RPQ ab = %v, want %v", pairs, want)
	}

	props := map[string]string{"city": "Ithaca"}
	var two []graphapi.NodeID
	calls = callsDuring(func() { two = client.TwoHopNeighbors(0, graphapi.WildcardType, props) })
	t.Logf("TwoHopNeighbors: %v", calls)
	if calls["MatchBatch"] > 6 || calls["Neighbors"] > 3 {
		t.Errorf("TwoHopNeighbors made %v, want at most 3 Neighbors and 6 MatchBatch calls", calls)
	}
	if want := twoHopRef(ref, 0, graphapi.WildcardType, props); !reflect.DeepEqual(two, want) {
		t.Fatalf("TwoHopNeighbors = %v, want %v", two, want)
	}

	// The single-machine engine over the whole graph is the reference:
	// its answer is deterministic, so the path is the same one.
	st, err := store.New(nodes, edges, ns, es, store.Config{NumShards: 2, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := temporal.NewEngine(st)
	var res temporal.PathResult
	calls = callsDuring(func() { res = client.PathInWindow(0, 5, 100, 600, 4) })
	t.Logf("PathInWindow: %v", calls)
	if total(calls) > 4 {
		t.Errorf("PathInWindow made %v, want at most 4 calls", calls)
	}
	if want := eng.PathInWindow(0, 5, 100, 600, 4); !want.Found || !reflect.DeepEqual(res, want) {
		t.Fatalf("PathInWindow = %+v, the engine says %+v", res, want)
	}
}

// fakePeer serves each named method with its fixed reply, whatever it
// is asked, and returns its address.
func fakePeer(t *testing.T, replies map[string]rpc.Wirer) string {
	t.Helper()
	srv := rpc.NewServer()
	for method, reply := range replies {
		srv.Handle(method, func(context.Context, []byte) (any, error) { return reply, nil })
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestMalformedPeerReplies: a reply whose length does not match its
// request, one short and one long, is an error for the client and for
// an aggregator shipping to the peer, never a panic — a panic in a
// shipping goroutine would take the whole server down.
func TestMalformedPeerReplies(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 40, 250)
	partNodes, partEdges := Partition(nodes, edges, 2)
	ref := refgraph.New(nodes, edges)
	// src, owned by server 0, has a neighbor owned by server 1 (the fake)
	// and dst, also server 0's, is no neighbor of src: the Neighbors
	// fan-out and the path's second hop both reach the fake.
	src, dst := int64(-1), int64(-1)
	for _, n := range partNodes[0] {
		nbrs := ref.GetNeighborIDs(n.ID, graphapi.WildcardType, nil)
		if src < 0 && slices.ContainsFunc(nbrs, func(m int64) bool { return OwnerOf(m, 2) == 1 }) {
			src = n.ID
		}
	}
	srcNbrs := ref.GetNeighborIDs(src, graphapi.WildcardType, nil)
	for _, n := range partNodes[0] {
		if n.ID != src && !slices.Contains(srcNbrs, n.ID) {
			dst = n.ID
			break
		}
	}
	if src < 0 || dst < 0 {
		t.Fatal("graph has no src/dst pair that fans out to server 1")
	}

	for _, n := range []int{0, 9} { // short and long
		badEdges := make([][]graphapi.EdgeData, n)
		fake := fakePeer(t, map[string]rpc.Wirer{
			"MatchBatch": &matchesReply{Matches: make([]bool, n)},
			"Expand":     &expandReply{Edges: badEdges},
			"RecsMeta":   &recsMetaReply{Types: make([]graphapi.EdgeType, n+1), Counts: make([]int, n)},
		})

		// The client, against the fake as the owner of every node.
		client, err := NewClient([]string{fake})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if got, err := client.Expand([]graphapi.NodeID{1, 2, 3}, graphapi.WildcardType, graphapi.ByOrder(0, 5), true); err == nil {
			t.Errorf("Expand of 3 nodes answered with %d lists = %v and no error", n, got)
		}
		if got := client.GetEdgeRecords(1); got != nil {
			t.Errorf("GetEdgeRecords with %d types and %d counts = %v, want nil", n+1, n, got)
		}

		// Server 0 as the aggregator, the fake as server 1.
		srv, err := NewServer(partNodes[0], partEdges[0], ns, es, ServerConfig{NumServers: 2, ShardsPerServer: 1, SamplingRate: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.ConnectPeers([]string{addr, fake})
		conn, err := rpc.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var ids idsReply
		if err := conn.Call("Neighbors", &neighborsArgs{IDs: []graphapi.NodeID{src}, EType: graphapi.WildcardType}, &ids); err == nil || !strings.Contains(err.Error(), "MatchBatch") {
			t.Errorf("Neighbors(%d) with a %d-entry MatchBatch reply = %v, %v; want a MatchBatch error", src, n, ids.IDs, err)
		}
		var path pathReply
		if err := conn.Call("PathInWindow", &pathArgs{Src: src, Dst: dst, Lo: graphapi.WildcardTime, Hi: graphapi.WildcardTime, MaxHops: 3}, &path); err == nil || !strings.Contains(err.Error(), "Expand") {
			t.Errorf("PathInWindow(%d,%d) with a %d-entry Expand reply = %+v, %v; want an Expand error", src, dst, n, path, err)
		}
		// The server survived both.
		var props nodePropsReply
		if err := conn.Call("NodeProps", &nodePropsArgs{ID: src}, &props); err != nil || !props.OK {
			t.Fatalf("server 0 after the malformed replies: NodeProps(%d) = %+v, %v", src, props, err)
		}
	}
}
