package traversal

import (
	"reflect"
	"slices"
	"testing"

	"zipg"
	"zipg/internal/graphapi"
	"zipg/internal/refgraph"
)

// grid builds a two-level tree: 0 -> {1,2}, 1 -> {3}, 2 -> {4,5}, 5 -> {0}.
func grid(t testing.TB) graphapi.Store {
	t.Helper()
	var nodes []zipg.Node
	for i := 0; i < 6; i++ {
		nodes = append(nodes, zipg.Node{ID: int64(i)})
	}
	edges := []zipg.Edge{
		{Src: 0, Dst: 1, Type: 0, Timestamp: 1},
		{Src: 0, Dst: 2, Type: 1, Timestamp: 2},
		{Src: 1, Dst: 3, Type: 0, Timestamp: 3},
		{Src: 2, Dst: 4, Type: 0, Timestamp: 4},
		{Src: 2, Dst: 5, Type: 0, Timestamp: 5},
		{Src: 5, Dst: 0, Type: 0, Timestamp: 6},
	}
	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges}, zipg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBFSOrderAndDepths(t *testing.T) {
	g := grid(t)
	order := BFS(g, 0, 5)
	if !reflect.DeepEqual(order, []graphapi.NodeID{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("BFS order = %v", order)
	}
	// A node's depth is the first bound that reaches it.
	want := map[graphapi.NodeID]int{0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
	depths := map[graphapi.NodeID]int{}
	for d := 2; d >= 0; d-- {
		for _, id := range BFS(g, 0, d) {
			depths[id] = d
		}
	}
	if !reflect.DeepEqual(depths, want) {
		t.Fatalf("depths = %v", depths)
	}
}

func TestBFSDepthBound(t *testing.T) {
	g := grid(t)
	order := BFS(g, 0, 1)
	if !reflect.DeepEqual(order, []graphapi.NodeID{0, 1, 2}) {
		t.Fatalf("depth-1 BFS = %v", order)
	}
	if got := BFS(g, 0, 0); !reflect.DeepEqual(got, []graphapi.NodeID{0}) {
		t.Fatalf("depth-0 BFS = %v", got)
	}
}

func TestBFSCycleTerminates(t *testing.T) {
	g := grid(t) // contains cycle 0 -> 2 -> 5 -> 0
	order := BFS(g, 0, 100)
	if len(order) != 6 {
		t.Fatalf("cycle BFS visited %d nodes", len(order))
	}
}

func TestBFSMissingStart(t *testing.T) {
	g := grid(t)
	if got := BFS(g, 99, 3); !reflect.DeepEqual(got, []graphapi.NodeID{99}) {
		t.Fatalf("missing start = %v", got)
	}
}

func TestBFSAgreesWithReference(t *testing.T) {
	var nodes []graphapi.Node
	var edges []graphapi.Edge
	for i := 0; i < 40; i++ {
		nodes = append(nodes, graphapi.Node{ID: int64(i)})
	}
	for i := 0; i < 160; i++ {
		edges = append(edges, graphapi.Edge{
			Src: int64(i % 40), Dst: int64((i*11 + 3) % 40),
			Type: int64(i % 2), Timestamp: int64(i),
		})
	}
	g, err := zipg.Compress(zipg.GraphData{Nodes: nodes, Edges: edges}, zipg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := refgraph.New(nodes, edges)
	for start := int64(0); start < 10; start++ {
		for depth := 0; depth <= 5; depth++ {
			a := BFS(g, start, depth)
			b := BFS(ref, start, depth)
			slices.Sort(a)
			slices.Sort(b)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("depth-%d BFS from %d differs: %v vs %v", depth, start, a, b)
			}
		}
	}
}
