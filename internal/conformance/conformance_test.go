// Package conformance differentially tests every graph store in the
// repository — ZipG in process and through a loopback cluster, the
// Neo4j-like pointer store and the Titan-like KV store — against the
// naive reference implementation, over random operation sequences.
// Agreement across all of them is what licenses the benchmark harness's
// throughput comparisons.
package conformance

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"zipg"
	"zipg/internal/baselines/kvstore"
	"zipg/internal/baselines/pointerstore"
	"zipg/internal/cluster"
	"zipg/internal/graphapi"
	"zipg/internal/refgraph"
	"zipg/internal/rpq"
	"zipg/internal/store"
	"zipg/internal/traversal"
	"zipg/internal/workloads"
)

// systems builds every implementation over the same initial graph.
func systems(t testing.TB, nodes []graphapi.Node, edges []graphapi.Edge) map[string]graphapi.Store {
	t.Helper()
	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges}, zipg.Options{
		NumShards:         2,
		SamplingRate:      8,
		LogStoreThreshold: 20 << 10, // small, to exercise rollovers mid-test
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pointerstore.New(nodes, edges, pointerstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pst, err := pointerstore.New(nodes, edges, pointerstore.Config{Tuned: true})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := kvstore.New(nodes, edges, kvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	kvc, err := kvstore.New(nodes, edges, kvstore.Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	_, cl := launchCluster(t, nodes, edges, 1, false)
	_, clr := launchCluster(t, nodes, edges, 2, true)
	return map[string]graphapi.Store{
		"zipg":        g,
		"cluster":     cl,
		"cluster-2x2": clr,
		"neo4j":       ps,
		"neo4j-tuned": pst,
		"titan":       kv,
		"titan-c":     kvc,
	}
}

// launchCluster serves the graph from a 2-partition × 2-shard loopback
// cluster (the benchmark's shape at one replica) and connects a client:
// every query and write of the suites below also crosses the wire
// format, the owner routing, the aggregator's function shipping and,
// with more replicas, the client's read spreading and write fan-out.
// The log threshold is small enough that the mutation rounds roll over;
// with background set, each server's worker compresses the sealed logs
// and merges every two same-tier generations while the suites read.
func launchCluster(t testing.TB, nodes []graphapi.Node, edges []graphapi.Edge, replicas int, background bool) (*cluster.Cluster, clusterStore) {
	t.Helper()
	nodeSchema, edgeSchema, err := zipg.DeriveSchemas(zipg.GraphData{Nodes: nodes, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.LaunchConfig{
		NumServers:        2,
		ShardsPerServer:   2,
		SamplingRate:      8,
		LogStoreThreshold: 2 << 10,
	}
	if background {
		cfg.BackgroundCompaction, cfg.CompactAfterRollovers = true, 2
	}
	c, err := cluster.LaunchWithReplicas(nodes, edges, nodeSchema, edgeSchema, cfg, replicas)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := c.Client()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return c, clusterStore{cl, c.Servers}
}

// clusterStore is the cluster client with one gap closed on the test's
// side. An appended edge brings a missing endpoint into being as an
// empty node; the cluster does that only at the server owning the
// source, so a new destination owned by another server stays unknown
// to its owner (ROADMAP open item). The suites here compare everything
// else, so the wrapper creates such a destination through the client
// first, which reaches every replica of its owner.
type clusterStore struct {
	*cluster.Client
	servers []*cluster.Server
}

func (c clusterStore) AppendEdge(e graphapi.Edge) error {
	if _, ok := c.GetNodeProperty(e.Dst, nil); !ok {
		if err := c.AppendNode(e.Dst, nil); err != nil {
			return err
		}
	}
	return c.Client.AppendEdge(e)
}

func randomGraph(rng *rand.Rand, nNodes, nEdges int) ([]graphapi.Node, []graphapi.Edge) {
	cities := []string{"Ithaca", "Berkeley", "Chicago", "Princeton"}
	nodes := make([]graphapi.Node, nNodes)
	for i := range nodes {
		nodes[i] = graphapi.Node{ID: int64(i), Props: map[string]string{
			"location": cities[rng.Intn(len(cities))],
			"name":     fmt.Sprintf("user%d", i),
		}}
		if rng.Intn(3) == 0 {
			nodes[i].Props["vip"] = "yes"
		}
	}
	edges := make([]graphapi.Edge, nEdges)
	for i := range edges {
		edges[i] = graphapi.Edge{
			Src:       int64(rng.Intn(nNodes)),
			Dst:       int64(rng.Intn(nNodes)),
			Type:      int64(rng.Intn(3)),
			Timestamp: int64(rng.Intn(1000)),
		}
		if rng.Intn(2) == 0 {
			edges[i].Props = map[string]string{"w": fmt.Sprint(rng.Intn(50))}
		}
	}
	return nodes, edges
}

// checkAgreement runs every read query against all systems and the
// reference, failing on any divergence.
func checkAgreement(t *testing.T, ref graphapi.Store, sys map[string]graphapi.Store, nNodes int, rng *rand.Rand, tag string) {
	t.Helper()
	for trial := 0; trial < 40; trial++ {
		id := int64(rng.Intn(nNodes + 5)) // occasionally out of range
		etype := int64(rng.Intn(4)) - 1   // occasionally wildcard (-1)

		wantProps, wantOK := ref.GetNodeProperty(id, nil)
		wantNbr := ref.GetNeighborIDs(id, etype, nil)
		wantNbrF := ref.GetNeighborIDs(id, etype, map[string]string{"location": "Ithaca"})
		// GetEdgeRecord takes a concrete type; wildcard uses GetEdgeRecords.
		var refRec graphapi.EdgeRecord
		refRecOK := false
		if etype >= 0 {
			refRec, refRecOK = ref.GetEdgeRecord(id, etype)
		}
		refRecs := ref.GetEdgeRecords(id)

		for name, s := range sys {
			gotProps, gotOK := s.GetNodeProperty(id, nil)
			if gotOK != wantOK {
				t.Fatalf("[%s/%s] GetNodeProperty(%d) ok=%v want %v", tag, name, id, gotOK, wantOK)
			}
			if wantOK && !reflect.DeepEqual(gotProps, wantProps) {
				t.Fatalf("[%s/%s] GetNodeProperty(%d) = %v want %v", tag, name, id, gotProps, wantProps)
			}
			if got := s.GetNeighborIDs(id, etype, nil); !sameIDs(got, wantNbr) {
				t.Fatalf("[%s/%s] GetNeighborIDs(%d,%d) = %v want %v", tag, name, id, etype, got, wantNbr)
			}
			if got := s.GetNeighborIDs(id, etype, map[string]string{"location": "Ithaca"}); !sameIDs(got, wantNbrF) {
				t.Fatalf("[%s/%s] filtered neighbors(%d,%d) = %v want %v", tag, name, id, etype, got, wantNbrF)
			}
			if etype >= 0 {
				rec, ok := s.GetEdgeRecord(id, etype)
				if ok != refRecOK {
					t.Fatalf("[%s/%s] GetEdgeRecord(%d,%d) ok=%v want %v", tag, name, id, etype, ok, refRecOK)
				}
				if ok {
					compareRecords(t, tag, name, id, etype, rec, refRec, rng)
				}
			}
			recs := s.GetEdgeRecords(id)
			if len(recs) != len(refRecs) {
				t.Fatalf("[%s/%s] GetEdgeRecords(%d) = %d records, want %d", tag, name, id, len(recs), len(refRecs))
			}
			for ri := range recs {
				compareRecords(t, tag, name, id, -1, recs[ri], refRecs[ri], rng)
			}
		}

		// Node search by property.
		for _, props := range []map[string]string{
			{"location": "Berkeley"},
			{"location": "Ithaca", "vip": "yes"},
			{"name": fmt.Sprintf("user%d", rng.Intn(nNodes))},
		} {
			want := ref.GetNodeIDs(props)
			for name, s := range sys {
				if got := s.GetNodeIDs(props); !sameIDs(got, want) {
					t.Fatalf("[%s/%s] GetNodeIDs(%v) = %v want %v", tag, name, props, got, want)
				}
			}
		}
	}
}

func compareRecords(t *testing.T, tag, name string, id, etype int64, rec, refRec graphapi.EdgeRecord, rng *rand.Rand) {
	t.Helper()
	if rec.Count() != refRec.Count() {
		t.Fatalf("[%s/%s] record(%d,%d) count=%d want %d", tag, name, id, etype, rec.Count(), refRec.Count())
	}
	// Range queries agree.
	lo := int64(rng.Intn(1000))
	hi := lo + int64(rng.Intn(500))
	gb, ge := rec.Range(lo, hi)
	wb, we := refRec.Range(lo, hi)
	if gb != wb || ge != we {
		t.Fatalf("[%s/%s] record(%d,%d).Range(%d,%d) = [%d,%d) want [%d,%d)", tag, name, id, etype, lo, hi, gb, ge, wb, we)
	}
	// Edge data agrees at every time order. Timestamp ties may permute
	// order across systems, so compare multisets per timestamp.
	n := rec.Count()
	gotAt := make(map[int64][]string)
	wantAt := make(map[int64][]string)
	for i := 0; i < n; i++ {
		gd, err := rec.Data(i)
		if err != nil {
			t.Fatalf("[%s/%s] Data(%d): %v", tag, name, i, err)
		}
		wd, err := refRec.Data(i)
		if err != nil {
			t.Fatalf("[%s/ref] Data(%d): %v", tag, i, err)
		}
		gotAt[gd.Timestamp] = append(gotAt[gd.Timestamp], fmt.Sprint(gd.Dst, gd.Props))
		wantAt[wd.Timestamp] = append(wantAt[wd.Timestamp], fmt.Sprint(wd.Dst, wd.Props))
	}
	for ts, want := range wantAt {
		got := gotAt[ts]
		if !sameMultiset(got, want) {
			t.Fatalf("[%s/%s] record(%d,%d) edges at ts=%d: %v want %v", tag, name, id, etype, ts, got, want)
		}
	}
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[string]int)
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
		if count[x] < 0 {
			return false
		}
	}
	return true
}

func TestAllSystemsAgreeStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nodes, edges := randomGraph(rng, 40, 300)
	ref := refgraph.New(nodes, edges)
	sys := systems(t, nodes, edges)
	checkAgreement(t, ref, sys, 40, rng, "static")
}

func TestAllSystemsAgreeUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const nNodes = 30
	nodes, edges := randomGraph(rng, nNodes, 150)
	ref := refgraph.New(nodes, edges)
	sys := systems(t, nodes, edges)

	for round := 0; round < 6; round++ {
		mutate(t, ref, sys, nNodes, rng, 40)
		checkAgreement(t, ref, sys, nNodes, rng, fmt.Sprintf("round%d", round))
	}
}

// mutate applies n random mutations to the reference and every system:
// appended edges, appended, rewritten and recreated nodes, deleted
// edge triples and deleted nodes. Nodes nNodes+10 and up are never
// created.
func mutate(t *testing.T, ref graphapi.Store, sys map[string]graphapi.Store, nNodes int, rng *rand.Rand, n int) {
	t.Helper()
	apply := func(f func(s graphapi.Store) error) {
		t.Helper()
		if err := f(ref); err != nil {
			t.Fatal(err)
		}
		for name, s := range sys {
			if err := f(s); err != nil {
				t.Fatalf("[%s] %v", name, err)
			}
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // append edge
			e := graphapi.Edge{
				Src:       int64(rng.Intn(nNodes)),
				Dst:       int64(rng.Intn(nNodes)),
				Type:      int64(rng.Intn(3)),
				Timestamp: int64(rng.Intn(1000)),
				Props:     map[string]string{"w": fmt.Sprint(rng.Intn(9))},
			}
			apply(func(s graphapi.Store) error { return s.AppendEdge(e) })
		case 4, 5, 6: // append/update node
			id := int64(rng.Intn(nNodes + 10))
			props := map[string]string{
				"location": []string{"Ithaca", "Berkeley"}[rng.Intn(2)],
				"name":     fmt.Sprintf("user%d", id),
			}
			apply(func(s graphapi.Store) error { return s.AppendNode(id, props) })
		case 7: // delete edges
			src := int64(rng.Intn(nNodes))
			dst := int64(rng.Intn(nNodes))
			ty := int64(rng.Intn(3))
			wantN, _ := ref.DeleteEdges(src, ty, dst)
			for name, s := range sys {
				gotN, err := s.DeleteEdges(src, ty, dst)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("[%s] DeleteEdges removed %d want %d", name, gotN, wantN)
				}
			}
		case 8: // delete node
			id := int64(rng.Intn(nNodes))
			apply(func(s graphapi.Store) error { return s.DeleteNode(id) })
		case 9: // recreate a node
			id := int64(rng.Intn(nNodes))
			apply(func(s graphapi.Store) error {
				return s.AppendNode(id, map[string]string{"name": "reborn"})
			})
		}
	}
}

// opScript is a quick-generatable program of graph mutations and
// queries. Interpreting the same script against zipg and the reference
// and comparing observations is a property: "no operation sequence can
// make the compressed store diverge from the naive one."
type opScript struct {
	Ops []scriptOp
}

type scriptOp struct {
	Kind  uint8
	ID    uint16
	Dst   uint16
	Type  uint8
	Ts    uint32
	Value uint8
}

func TestQuickOpScriptsAgree(t *testing.T) {
	const nNodes = 16
	cities := []string{"a", "b", "c"}
	f := func(script opScript) bool {
		if len(script.Ops) > 120 {
			script.Ops = script.Ops[:120]
		}
		rng := rand.New(rand.NewSource(77))
		nodes, edges := randomGraph(rng, nNodes, 40)
		g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges}, zipg.Options{
			NumShards:         2,
			SamplingRate:      8,
			LogStoreThreshold: 4 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Closed per script, ahead of the test's own cleanup: quick runs
		// 25 of these.
		c, cl := launchCluster(t, nodes, edges, 1, false)
		defer c.Close()
		defer cl.Close()
		ref := refgraph.New(nodes, edges)
		// The script runs against the reference and, op by op, against
		// the in-process store and the cluster client.
		subjects := []graphapi.Store{g, cl}
		for _, op := range script.Ops {
			id := int64(op.ID % (nNodes + 4))
			dst := int64(op.Dst % (nNodes + 4))
			etype := int64(op.Type % 3)
			switch op.Kind % 8 {
			case 0, 1: // append edge
				e := graphapi.Edge{Src: id, Dst: dst, Type: etype, Timestamp: int64(op.Ts % 1000)}
				for _, s := range append(subjects, ref) {
					if err := s.AppendEdge(e); err != nil {
						return false
					}
				}
			case 2: // append/replace node
				props := map[string]string{"location": cities[op.Value%3]}
				for _, s := range append(subjects, ref) {
					if err := s.AppendNode(id, props); err != nil {
						return false
					}
				}
			case 3: // delete node
				for _, s := range append(subjects, ref) {
					s.DeleteNode(id)
				}
			case 4: // delete edges
				want, _ := ref.DeleteEdges(id, etype, dst)
				for _, s := range subjects {
					if got, _ := s.DeleteEdges(id, etype, dst); got != want {
						return false
					}
				}
			case 5: // observe node
				want, wantOK := ref.GetNodeProperty(id, nil)
				for _, s := range subjects {
					got, ok := s.GetNodeProperty(id, nil)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						return false
					}
				}
			case 6: // observe record
				want, wantOK := ref.GetEdgeRecord(id, etype)
				for _, s := range subjects {
					got, ok := s.GetEdgeRecord(id, etype)
					if ok != wantOK || (ok && got.Count() != want.Count()) {
						return false
					}
				}
			case 7: // observe neighbors
				want := ref.GetNeighborIDs(id, etype, nil)
				for _, s := range subjects {
					if !sameIDs(s.GetNeighborIDs(id, etype, nil), want) {
						return false
					}
				}
			}
		}
		// Final sweep: every node agrees.
		for id := int64(0); id < nNodes+4; id++ {
			want, wantOK := ref.GetNodeProperty(id, nil)
			for _, s := range subjects {
				got, ok := s.GetNodeProperty(id, nil)
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					return false
				}
			}
		}
		return true
	}
	// One fixed script ahead of the random ones, the single-writer shape
	// the write path was first checked with: a run of appended edges to
	// destinations that do not exist yet, across a log rollover, then a node
	// rewritten, an edge triple and a node deleted, and the neighbor lists
	// observed (the script's final sweep observes every node).
	var fixed opScript
	for i := 0; i < 80; i++ {
		fixed.Ops = append(fixed.Ops, scriptOp{Kind: 0, ID: uint16(i % 7), Dst: uint16(nNodes + i%4), Type: 1, Ts: uint32(i)})
	}
	_, edges := randomGraph(rand.New(rand.NewSource(77)), nNodes, 40)
	fixed.Ops = append(fixed.Ops,
		scriptOp{Kind: 2, ID: 5, Value: 1},
		scriptOp{Kind: 4, ID: uint16(edges[3].Src), Dst: uint16(edges[3].Dst), Type: uint8(edges[3].Type)},
		scriptOp{Kind: 3, ID: 11})
	for id := uint16(0); id < 10; id++ {
		for etype := uint8(0); etype < 3; etype++ {
			fixed.Ops = append(fixed.Ops, scriptOp{Kind: 7, ID: id, Type: etype})
		}
	}
	if !f(fixed) {
		t.Error("the fixed append/rewrite/delete script diverged from the reference")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTAOAlgorithmsAgree runs Algorithms 1–3 and assoc_count on every
// system against the reference: on the initial graph, then after each
// of four rounds of mutations, by when every ZipG store has rolled over,
// so records are fragmented and carry deletes. In process and through
// the cluster (at one replica and at two) the read is the store's
// ReadEdges; on the baselines it is graphapi.ReadEdges's get_edge_data
// loop. Each (node, type) is read at TimeOrders before, inside, at and
// past the record, with limit 0 and a limit that cuts the interval, in
// wildcard, open, empty and inverted windows, and for absent nodes and
// an absent type.
func TestTAOAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nNodes = 24
	nodes, edges := randomGraph(rng, nNodes, 200)
	ref := refgraph.New(nodes, edges)
	sys := systems(t, nodes, edges)
	for _, name := range []string{"zipg", "cluster", "cluster-2x2"} {
		if _, ok := sys[name].(graphapi.EdgeReader); !ok {
			t.Fatalf("[%s] does not ship the record read: graphapi.ReadEdges would loop over Data", name)
		}
	}
	checkTAO(t, ref, sys, nNodes, rng, "static")
	for round := 0; round < 4; round++ {
		mutate(t, ref, sys, nNodes, rng, 150)
		checkTAO(t, ref, sys, nNodes, rng, fmt.Sprintf("round%d", round))
	}
	stores := []*store.Store{sys["zipg"].(*zipg.Graph).Store()}
	for _, name := range []string{"cluster", "cluster-2x2"} {
		for _, srv := range sys[name].(clusterStore).servers {
			stores = append(stores, srv.Store())
		}
	}
	for i, st := range stores {
		if st.Rollovers() == 0 {
			t.Errorf("store %d never rolled over: its records are not fragmented", i)
		}
	}
}

// TestTraversalsAgree holds the generic traversals — BFS and regular
// path queries, written once against graphapi — to the reference on
// every store, before and after mutation rounds that roll every log
// over. ZipG in process reads each hop record by record; through the
// cluster each hop is one Expand per owner.
func TestTraversalsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const nNodes = 24
	nodes, edges := randomGraph(rng, nNodes, 120)
	ref := refgraph.New(nodes, edges)
	sys := systems(t, nodes, edges)
	for _, name := range []string{"cluster", "cluster-2x2"} {
		if _, ok := sys[name].(graphapi.Expander); !ok {
			t.Fatalf("[%s] does not ship the hop: graphapi.Expand would read record by record", name)
		}
	}
	queries := rpq.GenerateQueries(24, 5, 3)
	checkTraversals(t, ref, sys, nNodes, rng, queries, "static")
	for round := 0; round < 3; round++ {
		mutate(t, ref, sys, nNodes, rng, 100)
		checkTraversals(t, ref, sys, nNodes, rng, queries, fmt.Sprintf("round%d", round))
	}
}

// checkTraversals compares every system's BFS visited sets, at depths 1
// to 3, and the pairs of every query with the reference's, from
// taoSample nodes below nNodes drawn afresh and an absent one.
func checkTraversals(t *testing.T, ref graphapi.Store, sys map[string]graphapi.Store, nNodes int, rng *rand.Rand, queries []rpq.Query, tag string) {
	t.Helper()
	starts := []int64{int64(nNodes) + 10}
	for _, id := range rng.Perm(nNodes)[:taoSample] {
		starts = append(starts, int64(id))
	}
	bfs := func(s graphapi.Store, start int64, depth int) []int64 {
		visited := traversal.BFS(s, start, depth)
		slices.Sort(visited)
		return visited
	}
	eval := func(s graphapi.Store, q rpq.Query) []rpq.Pair {
		pairs := q.Expr.Eval(s, starts, rpq.Limits{})
		sort.Slice(pairs, func(i, j int) bool {
			a, b := pairs[i], pairs[j]
			return a.Start < b.Start || a.Start == b.Start && a.End < b.End
		})
		return pairs
	}
	for _, start := range starts {
		for depth := 1; depth <= 3; depth++ {
			want := bfs(ref, start, depth)
			for name, s := range sys {
				if got := bfs(s, start, depth); !reflect.DeepEqual(got, want) {
					t.Fatalf("[%s/%s] depth-%d BFS from %d visited %v, want %v", tag, name, depth, start, got, want)
				}
			}
		}
	}
	for _, q := range queries {
		want := eval(ref, q)
		for name, s := range sys {
			if got := eval(s, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("[%s/%s] query %q = %v, want %v", tag, name, q.Expr.Text, got, want)
			}
		}
	}
}

// TestWindowedQueriesAgree holds the temporal queries of zipg.Windowed
// — AssocTimeRange, AssocCountInWindow and PathInWindow — on ZipG in
// process and through the cluster at one replica and at two to answers
// computed from the reference: a record's in-window edges in TimeOrder,
// their number, and a BFS over in-window edges between live nodes. It
// checks the initial graph and again after each of three mutation
// rounds that roll every log over.
func TestWindowedQueriesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const nNodes = 24
	nodes, edges := randomGraph(rng, nNodes, 150)
	ref := refgraph.New(nodes, edges)
	all := systems(t, nodes, edges)
	sys := map[string]graphapi.Store{}
	for _, name := range []string{"zipg", "cluster", "cluster-2x2"} {
		if _, ok := all[name].(zipg.Windowed); !ok {
			t.Fatalf("[%s] does not serve zipg.Windowed", name)
		}
		sys[name] = all[name]
	}
	checkWindowed(t, ref, sys, nNodes, rng, "static")
	for round := 0; round < 3; round++ {
		mutate(t, ref, sys, nNodes, rng, 150)
		checkWindowed(t, ref, sys, nNodes, rng, fmt.Sprintf("round%d", round))
	}
}

// checkWindowed compares every system's windowed reads of edge types
// 0–3, and its paths to three destinations at most one and three hops
// long, with the reference's, for taoSample nodes below nNodes drawn
// afresh and an absent one, in wildcard, open, empty and inverted
// windows.
func checkWindowed(t *testing.T, ref graphapi.Store, sys map[string]graphapi.Store, nNodes int, rng *rand.Rand, tag string) {
	t.Helper()
	const W = graphapi.WildcardTime
	lo := int64(rng.Intn(1000))
	hi := lo + int64(rng.Intn(500))
	windows := [][2]int64{{W, W}, {lo, hi}, {lo, W}, {W, hi}, {lo, lo}, {hi, lo}}
	ids := []int64{int64(nNodes) + 10}
	for _, id := range rng.Perm(nNodes)[:taoSample] {
		ids = append(ids, int64(id))
	}
	for _, id := range ids {
		dsts := []int64{id, int64(rng.Intn(nNodes)), int64(nNodes) + 11}
		for _, win := range windows {
			for etype := int64(0); etype < 4; etype++ {
				var all, want []graphapi.EdgeData
				if rec, ok := ref.GetEdgeRecord(id, etype); ok {
					all = recordEdges(t, rec, W, W)
					want = recordEdges(t, rec, win[0], win[1])
				}
				for name, s := range sys {
					w := s.(zipg.Windowed)
					where := fmt.Sprintf("[%s/%s] (%d,%d) in [%d,%d)", tag, name, id, etype, win[0], win[1])
					if g := w.AssocCountInWindow(id, etype, win[0], win[1]); g != len(want) {
						t.Fatalf("%s AssocCountInWindow = %d, want %d", where, g, len(want))
					}
					for _, limit := range []int{0, 2} {
						wl := want
						if limit > 0 && len(wl) > limit {
							wl = wl[:limit]
						}
						if g := w.AssocTimeRange(id, etype, win[0], win[1], limit); !sameEdges(g, wl, all) {
							t.Fatalf("%s AssocTimeRange limit %d = %v, want %v", where, limit, g, wl)
						}
					}
				}
			}
			for _, dst := range dsts {
				for _, maxHops := range []int{1, 3} {
					want := refPathHops(t, ref, id, dst, win[0], win[1], maxHops)
					for name, s := range sys {
						got := s.(zipg.Windowed).PathInWindow(id, dst, win[0], win[1], maxHops)
						where := fmt.Sprintf("[%s/%s] PathInWindow(%d→%d, [%d,%d), %d)", tag, name, id, dst, win[0], win[1], maxHops)
						if got.Found != (want >= 0) || got.Found && (got.Hops != want || len(got.Path) != want+1) {
							t.Fatalf("%s = %+v, want %d hops (-1: none)", where, got, want)
						}
						if got.Found {
							checkPath(t, ref, got.Path, id, dst, win[0], win[1], where)
						}
					}
				}
			}
		}
	}
}

// recordEdges is the reference's answer to a windowed read: the edges
// of rec with timestamps in [tLo, tHi) (WildcardTime leaves a bound
// open), in TimeOrder.
func recordEdges(t *testing.T, rec graphapi.EdgeRecord, tLo, tHi int64) []graphapi.EdgeData {
	t.Helper()
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	var out []graphapi.EdgeData
	for i := 0; i < rec.Count(); i++ {
		e, err := rec.Data(i)
		if err != nil {
			t.Fatal(err)
		}
		if e.Timestamp >= tLo && e.Timestamp < tHi {
			out = append(out, e)
		}
	}
	return out
}

// windowNbrs is the set of nodes one in-window edge away from id, over
// every edge type; a deleted node has none.
func windowNbrs(t *testing.T, ref graphapi.Store, id, tLo, tHi int64) map[int64]bool {
	t.Helper()
	out := map[int64]bool{}
	for _, rec := range ref.GetEdgeRecords(id) {
		for _, e := range recordEdges(t, rec, tLo, tHi) {
			out[e.Dst] = true
		}
	}
	return out
}

// refPathHops is the fewest hops, at most maxHops, of a path from src
// to dst over in-window edges between live nodes; -1 if there is none.
func refPathHops(t *testing.T, ref graphapi.Store, src, dst, tLo, tHi int64, maxHops int) int {
	t.Helper()
	if _, ok := ref.GetNodeProperty(src, nil); !ok {
		return -1
	}
	if _, ok := ref.GetNodeProperty(dst, nil); !ok {
		return -1
	}
	seen := map[int64]bool{src: true}
	frontier := []int64{src}
	for hops := 0; len(frontier) > 0; hops++ {
		if seen[dst] {
			return hops
		}
		if hops == maxHops {
			break
		}
		var next []int64
		for _, n := range frontier {
			for m := range windowNbrs(t, ref, n, tLo, tHi) {
				if !seen[m] {
					seen[m] = true
					next = append(next, m)
				}
			}
		}
		frontier = next
	}
	return -1
}

// checkPath fails unless path runs from src to dst over in-window edges
// of the reference between live nodes.
func checkPath(t *testing.T, ref graphapi.Store, path []int64, src, dst, tLo, tHi int64, where string) {
	t.Helper()
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("%s path %v does not run from %d to %d", where, path, src, dst)
	}
	for i, n := range path {
		if _, ok := ref.GetNodeProperty(n, nil); !ok {
			t.Fatalf("%s path %v runs through deleted node %d", where, path, n)
		}
		if i > 0 && !windowNbrs(t, ref, path[i-1], tLo, tHi)[n] {
			t.Fatalf("%s path %v: no in-window edge %d→%d", where, path, path[i-1], n)
		}
	}
}

// taoSample is how many of the nodes below nNodes each checkTAO reads.
// A read on the LSM baselines decodes its SSTable blocks afresh, so
// every node on every check would make this the slowest test outside
// the figures; five checks of a fresh sample still reach most nodes.
const taoSample = 8

// checkTAO compares every system's TAO reads with the reference's, for
// taoSample nodes below nNodes drawn afresh, two absent ones, and edge
// types 0–3 (3 is never used).
func checkTAO(t *testing.T, ref graphapi.Store, sys map[string]graphapi.Store, nNodes int, rng *rand.Rand, tag string) {
	t.Helper()
	const W = graphapi.WildcardTime
	want := workloads.TAO{S: ref}
	ids := []int64{int64(nNodes) + 10, int64(nNodes) + 11}
	for _, id := range rng.Perm(nNodes)[:taoSample] {
		ids = append(ids, int64(id))
	}
	for _, id := range ids {
		for etype := int64(0); etype < 4; etype++ {
			// all is the record whole: the edges an interval that cuts
			// through equal timestamps may choose from.
			all, err := want.AssocRange(id, etype, 0, graphapi.NoLimit)
			if err != nil {
				t.Fatal(err)
			}
			n := len(all)
			b := rng.Intn(n + 1)
			ranges := [][2]int{{0, n}, {0, n + 5}, {-3, 5}, {-5, 2}, {n, 4}, {n + 2, 3}, {1, 0}, {0, 2}, {b, rng.Intn(n + 2)}}
			lo := int64(rng.Intn(1000))
			hi := lo + int64(rng.Intn(500))
			windows := []struct {
				lo, hi int64
				limit  int
			}{{W, W, n + 1}, {W, W, 2}, {lo, hi, 3}, {lo, hi, graphapi.NoLimit}, {lo, W, 100}, {W, hi, 1}, {lo, lo, 5}, {hi, lo, 5}, {lo, hi, 0}}
			id2set := map[graphapi.NodeID]bool{int64(rng.Intn(nNodes)): true, int64(rng.Intn(nNodes)): true}
			if n > 0 {
				id2set[all[rng.Intn(n)].Dst] = true
			}
			for name, s := range sys {
				got := workloads.TAO{S: s}
				where := func(op string) string { return fmt.Sprintf("[%s/%s] %s(%d,%d)", tag, name, op, id, etype) }
				if g, w := got.AssocCount(id, etype), n; g != w {
					t.Fatalf("%s = %d, want %d", where("assoc_count"), g, w)
				}
				for _, r := range ranges {
					g, err := got.AssocRange(id, etype, r[0], r[1])
					w, _ := want.AssocRange(id, etype, r[0], r[1])
					if err != nil || !sameEdges(g, w, all) {
						t.Fatalf("%s idx %d limit %d = %v, %v; want %v", where("assoc_range"), r[0], r[1], g, err, w)
					}
				}
				for _, win := range windows {
					g, err := got.AssocTimeRange(id, etype, win.lo, win.hi, win.limit)
					w, _ := want.AssocTimeRange(id, etype, win.lo, win.hi, win.limit)
					if err != nil || !sameEdges(g, w, all) {
						t.Fatalf("%s [%d,%d) limit %d = %v, %v; want %v", where("assoc_time_range"), win.lo, win.hi, win.limit, g, err, w)
					}
					g, err = got.AssocGet(id, etype, id2set, win.lo, win.hi)
					w, _ = want.AssocGet(id, etype, id2set, win.lo, win.hi)
					if err != nil || !sameEdges(g, w, w) {
						t.Fatalf("%s %v [%d,%d) = %v, %v; want %v", where("assoc_get"), id2set, win.lo, win.hi, g, err, w)
					}
				}
			}
		}
	}
}

// sameEdges reports whether got answers a TAO read as want does. Stores
// order edges of equal timestamp differently, so the two must list the
// same timestamps in the same order, and at each timestamp the same
// edges — except where the interval cuts through the record's edges at
// that timestamp (all is the record whole), which it may take any of.
func sameEdges(got, want, all []graphapi.EdgeData) bool {
	if len(got) != len(want) {
		return false
	}
	// An edge without properties has a nil map or an empty one depending
	// on the path it took; the key says neither.
	key := func(e graphapi.EdgeData) string { return fmt.Sprint(e.Dst, e.Props) }
	gotAt, wantAt, allAt := map[int64][]string{}, map[int64][]string{}, map[int64][]string{}
	for i := range got {
		if got[i].Timestamp != want[i].Timestamp {
			return false
		}
		gotAt[got[i].Timestamp] = append(gotAt[got[i].Timestamp], key(got[i]))
		wantAt[want[i].Timestamp] = append(wantAt[want[i].Timestamp], key(want[i]))
	}
	for _, e := range all {
		allAt[e.Timestamp] = append(allAt[e.Timestamp], key(e))
	}
	for ts, w := range wantAt {
		if len(w) == len(allAt[ts]) && !sameMultiset(gotAt[ts], w) {
			return false
		}
		if !subMultiset(gotAt[ts], allAt[ts]) {
			return false
		}
	}
	return true
}

// subMultiset reports whether every element of a occurs in b at least
// as often.
func subMultiset(a, b []string) bool {
	count := make(map[string]int)
	for _, x := range b {
		count[x]++
	}
	for _, x := range a {
		if count[x]--; count[x] < 0 {
			return false
		}
	}
	return true
}
