package cluster

import (
	"context"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/refgraph"
)

func TestReplicatedClusterReadsAndWrites(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 24, 100)
	c, client := launchTestReplicas(t, nodes, edges, ns, es, LaunchConfig{NumServers: 2, ShardsPerServer: 2, SamplingRate: 8}, 3)
	ref := refgraph.New(nodes, edges)

	// Reads agree with the reference regardless of which replica serves
	// them (the round-robin cycles through all of them over 30 queries).
	for id := int64(0); id < 24; id++ {
		want, wantOK := ref.GetNodeProperty(id, nil)
		got, gotOK := client.GetNodeProperty(id, nil)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: %v,%v want %v,%v", id, got, gotOK, want, wantOK)
		}
		if g, w := client.GetNeighborIDs(id, 0, nil), ref.GetNeighborIDs(id, 0, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("neighbors(%d): %v want %v", id, g, w)
		}
	}
	if g, w := client.GetNodeIDs(map[string]string{"city": "Ithaca"}), ref.GetNodeIDs(map[string]string{"city": "Ithaca"}); !reflect.DeepEqual(g, w) {
		t.Fatalf("GetNodeIDs: %v want %v", g, w)
	}

	// A write reaches every replica: after it, repeated reads (which
	// round-robin across replicas) all see it.
	if err := client.AppendNode(500, map[string]string{"city": "Ithaca", "name": "new"}); err != nil {
		t.Fatal(err)
	}
	ref.AppendNode(500, map[string]string{"city": "Ithaca", "name": "new"})
	for trial := 0; trial < 6; trial++ { // 2x replicas reads
		if _, ok := client.GetNodeProperty(500, nil); !ok {
			t.Fatalf("replica missed the write (trial %d)", trial)
		}
	}
	// Edge records via replicas.
	if err := client.AppendEdge(layout.Edge{Src: 500, Dst: 1, Type: 0, Timestamp: 9}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		rec, ok := client.GetEdgeRecord(500, 0)
		if !ok || rec.Count() != 1 {
			t.Fatalf("edge write missed on some replica (trial %d)", trial)
		}
		if d, err := rec.Data(0); err != nil || d.Dst != 1 {
			t.Fatalf("edge data: %v %v", d, err)
		}
	}
	if n, err := client.DeleteEdges(500, 0, 1); err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}

	// The shipped record read is the Data loop on every replica: a
	// client of replica r alone, for each r.
	for r := 0; r < 3; r++ {
		one, err := newClient([][]string{c.addrs[0][r : r+1], c.addrs[1][r : r+1]})
		if err != nil {
			t.Fatal(err)
		}
		checkReadEdgesIsDataLoop(t, one, 24)
		one.Close()
	}
}

func TestReplicatedFailover(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 12, 40)
	c, client := launchTestReplicas(t, nodes, edges, ns, es, LaunchConfig{NumServers: 2, ShardsPerServer: 1, SamplingRate: 8}, 2)

	// Kill one replica of each partition, under concurrent readers: every
	// read must still succeed, during the stop (a connection breaking
	// mid-call is dropped and the call fails over) and after it.
	ref := refgraph.New(nodes, edges)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64((g + i) % 12)
				if _, ok := client.GetNodeProperty(id, nil); !ok {
					t.Errorf("reader %d: node %d not served while replicas stop", g, id)
					return
				}
			}
		}(g)
	}
	c.StopReplica(0, 1)
	c.StopReplica(1, 1)
	wg.Wait()
	for id := int64(0); id < 12; id++ {
		want, wantOK := ref.GetNodeProperty(id, nil)
		got, gotOK := client.GetNodeProperty(id, nil)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("after failover, node %d: %v,%v want %v,%v", id, got, gotOK, want, wantOK)
		}
	}

	// Everything the one client offers answers through the survivors:
	// the one-round-trip record read, the temporal queries, two-hop.
	checkReadEdgesIsDataLoop(t, client, 12)
	for id := int64(0); id < 12; id++ {
		for etype := int64(0); etype < 3; etype++ {
			local := c.Servers[OwnerOf(id, 2)].Temporal()
			want := local.AssocTimeRange(id, etype, 100, 900, 0)
			if got := client.AssocTimeRange(id, etype, 100, 900, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("AssocTimeRange(%d,%d) = %v, the owner's engine says %v", id, etype, got, want)
			}
			if got, want := client.AssocCountInWindow(id, etype, 100, 900), len(want); got != want {
				t.Fatalf("AssocCountInWindow(%d,%d) = %d want %d", id, etype, got, want)
			}
		}
		props := map[string]string{"city": "Ithaca"}
		got, want := client.TwoHopNeighbors(id, 0, props), twoHopRef(ref, id, 0, props)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("TwoHop(%d) = %v want %v", id, got, want)
		}
	}

	// Writes to a partition with a dead replica fail loudly, naming it
	// (no silent divergence between copies).
	dead := c.addrs[OwnerOf(600, 2)][1]
	if err := client.AppendNode(600, map[string]string{"city": "Ithaca"}); err == nil || !strings.Contains(err.Error(), dead) {
		t.Fatalf("write with replica %s dead: err = %v, want one naming it", dead, err)
	}

	checkHungSoleReplicaCostsOneDeadline(t, c)

	// With every replica of partition 0 down, its record reads are
	// errors, not empty answers.
	c.StopReplica(0, 0)
	var id int64
	for OwnerOf(id, 2) != 0 || ref.GetEdgeRecords(id) == nil {
		id++
	}
	if got, err := client.ReadEdges(id, 0, graphapi.ByOrder(0, 10)); err == nil {
		t.Fatalf("ReadEdges of node %d with its partition down = %v and no error", id, got)
	}
	if got, err := client.ReadEdges(id, 0, graphapi.InWindow(graphapi.WildcardTime, graphapi.WildcardTime, 10)); err == nil {
		t.Fatalf("ReadEdges of node %d's window with its partition down = %v and no error", id, got)
	}
}

// checkReadEdgesIsDataLoop holds ReadEdges, over each of nodes 0..n-1's
// records whole, to the Data loop on the same client.
func checkReadEdgesIsDataLoop(t *testing.T, client *Client, n int64) {
	t.Helper()
	for id := int64(0); id < n; id++ {
		for _, rec := range client.GetEdgeRecords(id) {
			var want []graphapi.EdgeData
			for i := 0; i < rec.Count(); i++ {
				d, err := rec.Data(i)
				if err != nil {
					t.Fatalf("Data(%d) of node %d: %v", i, id, err)
				}
				want = append(want, d)
			}
			etype := rec.(*remoteRecord).etype
			got, err := client.ReadEdges(id, etype, graphapi.ByOrder(0, rec.Count()))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("ReadEdges of node %d type %d = %v, %v; the Data loop says %v", id, etype, got, err, want)
			}
		}
	}
}

// checkHungSoleReplicaCostsOneDeadline reads through a client whose
// partition 0 is c's stopped replica and a listener that accepts and
// never answers. A read under a deadline must come back when the
// deadline passes, whichever replica the round-robin tries first — not
// one deadline per replica, and not never.
func checkHungSoleReplicaCostsOneDeadline(t *testing.T, c *Cluster) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-stop; conn.Close() }() // held open, never read, never answered
		}
	}()
	client, err := newClient([][]string{{c.addrs[0][1], ln.Addr().String()}, c.addrs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var id int64
	for OwnerOf(id, 2) != 0 {
		id++
	}
	const deadline = 200 * time.Millisecond
	for trial := 0; trial < 4; trial++ { // both round-robin starts, twice
		start := time.Now() // before the deadline is set: took cannot fall short of it
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, ok := client.GetNodePropertyCtx(ctx, id, nil)
		took := time.Since(start)
		cancel()
		if ok {
			t.Fatalf("trial %d: a hung replica answered", trial)
		}
		if took < deadline || took > deadline+deadline/2 {
			t.Fatalf("trial %d: read returned after %s, want one %s deadline", trial, took, deadline)
		}
	}
	// The other partition is untouched by its neighbour's trouble.
	for OwnerOf(id, 2) != 1 {
		id++
	}
	if _, ok := client.GetNodeProperty(id, nil); !ok {
		t.Fatalf("node %d of the healthy partition not served", id)
	}
}
