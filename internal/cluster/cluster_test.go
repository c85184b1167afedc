package cluster

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/refgraph"
	"zipg/internal/telemetry"
)

func testGraph(t testing.TB, nNodes, nEdges int) ([]layout.Node, []layout.Edge, *layout.PropertySchema, *layout.PropertySchema) {
	t.Helper()
	ns, err := layout.NewPropertySchema([]string{"city", "name"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	es, err := layout.NewPropertySchema([]string{"w"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	cities := []string{"Ithaca", "Berkeley", "Chicago"}
	nodes := make([]layout.Node, nNodes)
	for i := range nodes {
		nodes[i] = layout.Node{ID: int64(i), Props: map[string]string{
			"city": cities[i%3],
			"name": fmt.Sprintf("user%d", i),
		}}
	}
	edges := make([]layout.Edge, nEdges)
	for i := range edges {
		edges[i] = layout.Edge{
			Src:       int64(rng.Intn(nNodes)),
			Dst:       int64(rng.Intn(nNodes)),
			Type:      int64(rng.Intn(3)),
			Timestamp: int64(rng.Intn(1000)),
			Props:     map[string]string{"w": fmt.Sprint(rng.Intn(9))},
		}
	}
	return nodes, edges, ns, es
}

func launchTestCluster(t testing.TB, nodes []layout.Node, edges []layout.Edge, ns, es *layout.PropertySchema, servers int) (*Cluster, *Client) {
	t.Helper()
	return launchTestReplicas(t, nodes, edges, ns, es, LaunchConfig{
		NumServers:        servers,
		ShardsPerServer:   2,
		SamplingRate:      8,
		LogStoreThreshold: 64 << 10,
	}, 1)
}

func launchTestReplicas(t testing.TB, nodes []layout.Node, edges []layout.Edge, ns, es *layout.PropertySchema, cfg LaunchConfig, replicas int) (*Cluster, *Client) {
	t.Helper()
	c, err := LaunchWithReplicas(nodes, edges, ns, es, cfg, replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return c, client
}

func TestOwnerOfStable(t *testing.T) {
	for id := int64(0); id < 100; id++ {
		o := OwnerOf(id, 4)
		if o < 0 || o >= 4 {
			t.Fatalf("owner out of range: %d", o)
		}
		if o != OwnerOf(id, 4) {
			t.Fatal("owner not deterministic")
		}
	}
}

func TestClusterAgreesWithReference(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 40, 250)
	_, client := launchTestCluster(t, nodes, edges, ns, es, 3)
	ref := refgraph.New(nodes, edges)
	rng := rand.New(rand.NewSource(42))

	for trial := 0; trial < 60; trial++ {
		id := int64(rng.Intn(45))
		etype := int64(rng.Intn(4)) - 1

		// Node properties.
		want, wantOK := ref.GetNodeProperty(id, nil)
		got, gotOK := client.GetNodeProperty(id, nil)
		if gotOK != wantOK || (wantOK && !reflect.DeepEqual(got, want)) {
			t.Fatalf("GetNodeProperty(%d) = %v,%v want %v,%v", id, got, gotOK, want, wantOK)
		}

		// Neighbors with remote property checks (function shipping).
		filter := map[string]string{"city": "Ithaca"}
		if g, w := client.GetNeighborIDs(id, etype, filter), ref.GetNeighborIDs(id, etype, filter); !reflect.DeepEqual(g, w) {
			t.Fatalf("Neighbors(%d,%d,filter) = %v want %v", id, etype, g, w)
		}
		if g, w := client.GetNeighborIDs(id, etype, nil), ref.GetNeighborIDs(id, etype, nil); !reflect.DeepEqual(g, w) {
			t.Fatalf("Neighbors(%d,%d) = %v want %v", id, etype, g, w)
		}

		// Edge records.
		if etype >= 0 {
			wantRec, wantOK := ref.GetEdgeRecord(id, etype)
			gotRec, gotOK := client.GetEdgeRecord(id, etype)
			if gotOK != wantOK {
				t.Fatalf("GetEdgeRecord(%d,%d) ok=%v want %v", id, etype, gotOK, wantOK)
			}
			if gotOK {
				if gotRec.Count() != wantRec.Count() {
					t.Fatalf("count %d want %d", gotRec.Count(), wantRec.Count())
				}
				lo := int64(rng.Intn(1000))
				gb, ge := gotRec.Range(lo, lo+200)
				wb, we := wantRec.Range(lo, lo+200)
				if gb != wb || ge != we {
					t.Fatalf("range [%d,%d) want [%d,%d)", gb, ge, wb, we)
				}
				if wantRec.Count() > 0 {
					i := rng.Intn(wantRec.Count())
					gd, err := gotRec.Data(i)
					if err != nil {
						t.Fatal(err)
					}
					wd, _ := wantRec.Data(i)
					if gd.Timestamp != wd.Timestamp {
						t.Fatalf("Data(%d).ts = %d want %d", i, gd.Timestamp, wd.Timestamp)
					}
				}
				if !reflect.DeepEqual(gotRec.Destinations(), wantRec.Destinations()) {
					// Timestamp ties may permute order; compare as multisets.
					g := append([]int64(nil), gotRec.Destinations()...)
					w := append([]int64(nil), wantRec.Destinations()...)
					sortIDs(g)
					sortIDs(w)
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("destinations %v want %v", g, w)
					}
				}
			}
		}
	}

	// Cross-server search aggregation.
	for _, city := range []string{"Ithaca", "Berkeley", "Chicago"} {
		props := map[string]string{"city": city}
		if g, w := client.GetNodeIDs(props), ref.GetNodeIDs(props); !reflect.DeepEqual(g, w) {
			t.Fatalf("GetNodeIDs(%s) = %v want %v", city, g, w)
		}
	}
}

func TestClusterWrites(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 20, 80)
	_, client := launchTestCluster(t, nodes, edges, ns, es, 3)
	ref := refgraph.New(nodes, edges)

	both := func(f func(s graphapi.Store) error) {
		t.Helper()
		if err := f(ref); err != nil {
			t.Fatal(err)
		}
		if err := f(client); err != nil {
			t.Fatal(err)
		}
	}
	// New node on some server.
	both(func(s graphapi.Store) error {
		return s.AppendNode(100, map[string]string{"city": "Ithaca", "name": "new"})
	})
	// Edge crossing servers.
	both(func(s graphapi.Store) error {
		return s.AppendEdge(graphapi.Edge{Src: 100, Dst: 3, Type: 0, Timestamp: 5})
	})
	// Update, delete.
	both(func(s graphapi.Store) error {
		return s.AppendNode(3, map[string]string{"city": "Berkeley", "name": "moved"})
	})
	both(func(s graphapi.Store) error { return s.DeleteNode(7) })

	wantN, _ := ref.DeleteEdges(100, 0, 3)
	gotN, err := client.DeleteEdges(100, 0, 3)
	if err != nil || gotN != wantN {
		t.Fatalf("DeleteEdges = %d,%v want %d", gotN, err, wantN)
	}

	for _, id := range []int64{100, 3, 7, 1} {
		want, wantOK := ref.GetNodeProperty(id, nil)
		got, gotOK := client.GetNodeProperty(id, nil)
		if gotOK != wantOK || (wantOK && !reflect.DeepEqual(got, want)) {
			t.Fatalf("after writes, node %d: %v,%v want %v,%v", id, got, gotOK, want, wantOK)
		}
	}
	if g, w := client.GetNeighborIDs(100, 0, nil), ref.GetNeighborIDs(100, 0, nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("neighbors after delete: %v want %v", g, w)
	}
}

func TestClusterSingleServerDegenerate(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 10, 30)
	_, client := launchTestCluster(t, nodes, edges, ns, es, 1)
	ref := refgraph.New(nodes, edges)
	for id := int64(0); id < 10; id++ {
		want, _ := ref.GetNodeProperty(id, nil)
		got, ok := client.GetNodeProperty(id, nil)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: %v want %v", id, got, want)
		}
	}
}

func sortIDs(ids []int64) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// twoHopRef is the reference two-hop: expand twice, filter the second
// hop.
func twoHopRef(ref *refgraph.Graph, id int64, etype int64, props map[string]string) []int64 {
	union := map[int64]bool{}
	for _, n := range ref.GetNeighborIDs(id, etype, nil) {
		for _, m := range ref.GetNeighborIDs(n, etype, props) {
			union[m] = true
		}
	}
	var out []int64
	for n := range union {
		out = append(out, n)
	}
	sortIDs(out)
	return out
}

func TestTwoHopNeighborsMultiLevelShipping(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 30, 150)
	_, client := launchTestCluster(t, nodes, edges, ns, es, 3)
	ref := refgraph.New(nodes, edges)

	for _, id := range []int64{0, 3, 7, 11} {
		for _, etype := range []int64{-1, 0, 1} {
			for _, props := range []map[string]string{nil, {"city": "Ithaca"}} {
				want := twoHopRef(ref, id, etype, props)
				got := client.TwoHopNeighbors(id, etype, props)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TwoHop(%d,%d,%v) = %v want %v", id, etype, props, got, want)
				}
			}
		}
	}
}

// TestOwnerDoesNotPickTheShard: the owner hash and the store's shard
// hash must not be the same function of the ID, or an n × n cluster
// fills one shard per server and leaves the rest empty.
func TestOwnerDoesNotPickTheShard(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 2000, 0)
	c, _ := launchTestCluster(t, nodes, edges, ns, es, 2)
	for sid, srv := range c.Servers {
		st := srv.Store()
		perShard := make([]int, st.NumPartitions())
		owned := 0
		for _, n := range nodes {
			if OwnerOf(n.ID, 2) == sid {
				perShard[st.PartitionOf(n.ID)]++
				owned++
			}
		}
		for shard, n := range perShard {
			if share := float64(n) / float64(owned); share < 0.35 || share > 0.65 {
				t.Errorf("server %d shard %d holds %d of the server's %d nodes (%.0f%%), want 35–65%%", sid, shard, n, owned, 100*share)
			}
		}
	}
}

// TestClosedServerLeavesNoReport: a server's /debug/codecs report holds
// its store; Close must withdraw it so the store can be collected —
// unless a later server's report has replaced it.
func TestClosedServerLeavesNoReport(t *testing.T) {
	nodes, edges, ns, es := testGraph(t, 20, 40)
	get := func() int {
		rec := httptest.NewRecorder()
		telemetry.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/codecs", nil))
		return rec.Code
	}
	first, err := NewServer(nodes, edges, ns, es, ServerConfig{NumServers: 1, ShardsPerServer: 1, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewServer(nodes, edges, ns, es, ServerConfig{NumServers: 1, ShardsPerServer: 1, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if code := get(); code != http.StatusOK {
		t.Fatalf("/debug/codecs = %d after closing the replaced server, want the later server's report", code)
	}
	second.Close()
	if code := get(); code != http.StatusNotFound {
		t.Fatalf("/debug/codecs = %d after closing every server, want 404", code)
	}
}
