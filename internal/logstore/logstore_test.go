package logstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"zipg/internal/layout"
)

func testLog(t testing.TB) *LogStore {
	t.Helper()
	ns, err := layout.NewPropertySchema([]string{"a", "b"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	es, err := layout.NewPropertySchema([]string{"w"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return New(ns, es, nil)
}

func TestNodeLifecycle(t *testing.T) {
	l := testLog(t)
	if err := l.AddNode(7, map[string]string{"a": "x"}); err != nil {
		t.Fatal(err)
	}
	if !l.HasNode(7) || l.HasNode(8) {
		t.Fatal("HasNode wrong")
	}
	props, ok := l.NodeProps(7)
	if !ok || props["a"] != "x" {
		t.Fatalf("NodeProps = %v", props)
	}
	// Replacement.
	if err := l.AddNode(7, map[string]string{"b": "y"}); err != nil {
		t.Fatal(err)
	}
	props, _ = l.NodeProps(7)
	if props["a"] != "" || props["b"] != "y" {
		t.Fatalf("replace failed: %v", props)
	}
	l.RemoveNode(7)
	if l.HasNode(7) {
		t.Fatal("RemoveNode failed")
	}
	// Validation.
	if err := l.AddNode(1, map[string]string{"nope": "x"}); err == nil {
		t.Fatal("unknown property accepted")
	}
	if err := l.AddNode(-1, nil); err == nil {
		t.Fatal("negative ID accepted")
	}
}

func TestEdgeLifecycle(t *testing.T) {
	l := testLog(t)
	for i := 0; i < 10; i++ {
		err := l.AddEdge(layout.Edge{Src: 1, Dst: int64(i), Type: 0, Timestamp: int64(100 - i*10)})
		if err != nil {
			t.Fatal(err)
		}
	}
	es := l.EdgeEntries(1, 0)
	if len(es) != 10 {
		t.Fatalf("entries = %d", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Timestamp < es[i-1].Timestamp {
			t.Fatal("entries unsorted")
		}
	}
	if got := l.EdgeTypes(1); !reflect.DeepEqual(got, []layout.EdgeType{0}) {
		t.Fatalf("EdgeTypes = %v", got)
	}
	if removed := l.RemoveEdges(1, 0, 5); removed != 1 {
		t.Fatalf("removed %d", removed)
	}
	if len(l.EdgeEntries(1, 0)) != 9 {
		t.Fatal("remove did not shrink")
	}
	if err := l.AddEdge(layout.Edge{Src: 1, Dst: -1}); err == nil {
		t.Fatal("negative dst accepted")
	}
}

func TestFindNodes(t *testing.T) {
	l := testLog(t)
	for i := 0; i < 10; i++ {
		v := "odd"
		if i%2 == 0 {
			v = "even"
		}
		if err := l.AddNode(int64(i), map[string]string{"a": v}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.FindNodes(map[string]string{"a": "even"})
	if !reflect.DeepEqual(got, []layout.NodeID{0, 2, 4, 6, 8}) {
		t.Fatalf("FindNodes = %v", got)
	}
	if l.FindNodes(nil) != nil {
		t.Fatal("empty filter should return nil")
	}
}

func TestSizeGrowsAndContents(t *testing.T) {
	l := testLog(t)
	if l.Size() != 0 {
		t.Fatal("fresh log not empty")
	}
	for i := 0; i < 20; i++ {
		if err := l.AddNode(int64(i), map[string]string{"a": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := l.AddEdge(layout.Edge{Src: int64(i), Dst: 0, Type: 0, Timestamp: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Size() == 0 {
		t.Fatal("size did not grow")
	}
	nodes, edges := l.Contents()
	if len(nodes) != 20 || len(edges) != 20 {
		t.Fatalf("contents = %d nodes, %d edges", len(nodes), len(edges))
	}
}

func TestConcurrentUse(t *testing.T) {
	l := testLog(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := int64(g*1000 + i)
				if err := l.AddNode(id, map[string]string{"a": "v"}); err != nil {
					t.Error(err)
					return
				}
				if err := l.AddEdge(layout.Edge{Src: id % 7, Dst: id, Type: 0, Timestamp: id}); err != nil {
					t.Error(err)
					return
				}
				l.NodeProps(id)
				l.EdgeEntries(id%7, 0)
			}
		}(g)
	}
	wg.Wait()
	nodes, edges := l.Contents()
	if len(nodes) != 800 || len(edges) != 800 {
		t.Fatalf("after concurrent use: %d nodes, %d edges", len(nodes), len(edges))
	}
}

func TestPreparedPuts(t *testing.T) {
	l := testLog(t)
	ns, es := l.nodeSchema, l.edgeSchema
	// Validation happens at prepare time, outside any lock.
	if _, err := PrepareNodePut(ns, -1, nil); err == nil {
		t.Fatal("negative node ID accepted")
	}
	if _, err := PrepareNodePut(ns, 1, map[string]string{"nope": "x"}); err == nil {
		t.Fatal("unknown property accepted")
	}
	if _, err := PrepareEdgePut(es, layout.Edge{Src: 1, Dst: -2}); err == nil {
		t.Fatal("negative edge field accepted")
	}
	var puts []Put
	for i := 0; i < 5; i++ {
		p, err := PrepareNodePut(ns, int64(i), map[string]string{"a": fmt.Sprint(i)})
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, p)
		ep, err := PrepareEdgePut(es, layout.Edge{Src: int64(i), Dst: 9, Type: 1, Timestamp: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		puts = append(puts, ep)
	}
	l.ApplyPuts(puts)
	if l.Size() == 0 {
		t.Fatal("ApplyPuts did not grow size")
	}
	nodes, edges := l.Contents()
	if len(nodes) != 5 || len(edges) != 5 {
		t.Fatalf("after ApplyPuts: %d nodes, %d edges", len(nodes), len(edges))
	}
	// A batch must behave exactly like the per-record calls.
	ref := testLog(t)
	for i := 0; i < 5; i++ {
		if err := ref.AddNode(int64(i), map[string]string{"a": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddEdge(layout.Edge{Src: int64(i), Dst: 9, Type: 1, Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	rn, re := ref.Contents()
	if !reflect.DeepEqual(nodes, rn) || !reflect.DeepEqual(edges, re) {
		t.Fatal("ApplyPuts contents differ from per-record appends")
	}
	if l.Size() != ref.Size() {
		t.Fatalf("size accounting differs: %d vs %d", l.Size(), ref.Size())
	}
}

// TestContentsDeterministic locks Contents' ordering contract: nodes
// ascend by ID and edges group by (src, type) ascending — the property
// compaction's byte-identical rebuilds stand on.
func TestContentsDeterministic(t *testing.T) {
	build := func() *LogStore {
		l := testLog(t)
		for _, id := range []int64{9, 3, 7, 1, 5} {
			if err := l.AddNode(id, map[string]string{"a": fmt.Sprint(id)}); err != nil {
				t.Fatal(err)
			}
			if err := l.AddEdge(layout.Edge{Src: id, Dst: id + 1, Type: id % 3, Timestamp: 100 - id}); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	n1, e1 := build().Contents()
	for i := 1; i < len(n1); i++ {
		if n1[i-1].ID >= n1[i].ID {
			t.Fatalf("nodes not ascending at %d: %v", i, n1)
		}
	}
	for i := 1; i < len(e1); i++ {
		a, b := e1[i-1], e1[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Type > b.Type) {
			t.Fatalf("edges not grouped ascending at %d", i)
		}
	}
	for trial := 0; trial < 5; trial++ {
		n2, e2 := build().Contents()
		if !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(e1, e2) {
			t.Fatalf("Contents differ across identical builds (trial %d)", trial)
		}
	}
}
