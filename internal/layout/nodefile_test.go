package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// propIDs returns n property IDs, p00, p01, ...
func propIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("p%02d", i)
	}
	return ids
}

// randomProps gives each schema property a value of 0–maxLen printable
// bytes, the empty ones absent or present as "" at random.
func randomProps(rng *rand.Rand, ids []string, maxLen int) map[string]string {
	props := map[string]string{}
	for _, id := range ids {
		n := rng.Intn(maxLen + 1)
		if n == 0 && rng.Intn(2) == 0 {
			continue
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0x20 + rng.Intn(0x7F-0x20))
		}
		props[id] = string(b)
	}
	return props
}

// nodeSchemaCases are the node sets the NodeFile differential runs on:
// the TAO-style four properties, one property, and forty properties with
// empty values (two-byte delimiters past 24). The one-property nodes
// hold an empty value too, and values that are prefixes of others — the
// last record's among the longer ones.
func nodeSchemaCases(t testing.TB) map[string]struct {
	nodes  []Node
	schema *PropertySchema
} {
	rng := rand.New(rand.NewSource(35))
	cases := map[string]struct {
		nodes  []Node
		schema *PropertySchema
	}{}
	tao, taoSchema := buildNodes(80)
	cases["four properties"] = struct {
		nodes  []Node
		schema *PropertySchema
	}{tao, taoSchema}
	for _, c := range []struct {
		name   string
		props  int
		maxLen int
	}{{"one property", 1, 12}, {"forty properties", 40, 20}} {
		ids := propIDs(c.props)
		nodes := make([]Node, 120)
		for i := range nodes {
			nodes[i] = Node{ID: int64(7 * i), Props: randomProps(rng, ids, c.maxLen)}
		}
		nodes[3].Props = nil // a record of delimiters alone
		if c.props == 1 {
			nodes[4].Props = map[string]string{ids[0]: ""}
			nodes[5].Props = map[string]string{ids[0]: "pre"}
			nodes[6].Props = map[string]string{ids[0]: "pref"}
			nodes[len(nodes)-1].Props = map[string]string{ids[0]: "prefix"}
		}
		cases[c.name] = struct {
			nodes  []Node
			schema *PropertySchema
		}{nodes, mustSchema(t, ids, 63)}
	}
	return cases
}

// TestNodeFileRawAgainstCompressed holds a view over the compressed text
// to one over the raw text and both to the input: every node's wildcard
// read, each single property (GetProperty and a one-ID GetProperties),
// random subsets with repeats and unknown IDs, unknown nodes, and
// FindNodes on every value of the first property, the empty one and
// values that are prefixes of others among them — on the α grid at two
// rates, and compressed as a shard compresses it, which samples a
// one-property NodeFile at its records' delimiters.
func TestNodeFileRawAgainstCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for name, c := range nodeSchemaCases(t) {
		ids := c.schema.IDs()
		for _, alpha := range []int{0, 4, 32} {
			raw, comp := nodeViewsAlpha(t, c.nodes, c.schema, alpha)
			where := fmt.Sprintf("%s, α=%d", name, alpha)
			if alpha == 0 {
				where = name + ", compressed as a shard"
				if comp.anchored != (len(ids) == 1) {
					t.Fatalf("%s: anchored %v with %d properties", where, comp.anchored, len(ids))
				}
			}
			for _, n := range c.nodes {
				want := make([]string, len(ids))
				for i, id := range ids {
					want[i] = n.Props[id]
				}
				for _, v := range []*NodeFileView{raw, comp} {
					if got, ok := v.GetProperties(n.ID, nil); !ok || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s node %d: wildcard %q, %v, want %q", where, n.ID, got, ok, want)
					}
					for i, id := range ids {
						got, ok := v.GetProperty(n.ID, id)
						if ok != (want[i] != "") || got != want[i] {
							t.Fatalf("%s node %d: GetProperty(%s) = %q, %v, want %q", where, n.ID, id, got, ok, want[i])
						}
						if one, ok := v.GetProperties(n.ID, []string{id}); !ok || one[0] != want[i] {
							t.Fatalf("%s node %d: GetProperties([%s]) = %q, %v, want %q", where, n.ID, id, one, ok, want[i])
						}
					}
					for trial := 0; trial < 3; trial++ {
						subset := []string{"absent"}
						for k := rng.Intn(5); k >= 0; k-- {
							subset = append(subset, ids[rng.Intn(len(ids))])
						}
						rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
						got, ok := v.GetProperties(n.ID, subset)
						for i, id := range subset {
							if !ok || got[i] != n.Props[id] {
								t.Fatalf("%s node %d: GetProperties(%v) = %q, %v", where, n.ID, subset, got, ok)
							}
						}
					}
				}
			}
			for _, v := range []*NodeFileView{raw, comp} {
				if got, ok := v.GetProperties(1, nil); ok || got != nil {
					t.Fatalf("%s: a missing node reads %q, %v", where, got, ok)
				}
				if got, ok := v.GetProperties(1, []string{ids[0], "absent"}); ok || got != nil {
					t.Fatalf("%s: a missing node's subset reads %q, %v", where, got, ok)
				}
				if got, ok := v.GetProperty(1, ids[0]); ok || got != "" {
					t.Fatalf("%s: a missing node's property reads %q, %v", where, got, ok)
				}
			}
			holders := map[string][]NodeID{} // value of ids[0] → its nodes, ascending
			for _, n := range c.nodes {
				holders[n.Props[ids[0]]] = append(holders[n.Props[ids[0]]], n.ID)
			}
			holders["no such value"] = nil
			for val, want := range holders {
				for _, v := range []*NodeFileView{raw, comp} {
					if got := v.FindNodes(map[string]string{ids[0]: val}); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: FindNodes(%s=%q) = %v, want %v", where, ids[0], val, got, want)
					}
				}
			}
		}
	}
}

// TestNodeReadsTakeTheirBytes: over a NodeFile on the α grid a wildcard
// read is one walk: its anchor (the record's offset mod α), the record's
// length header, then exactly its body — the delimiters and values — in
// Ψ steps; and GetProperty is at most α − 1 steps to the record, the
// header, at most α − 1 more to reach the value, and the value. Over a
// one-property NodeFile compressed as a shard compresses it, at its
// records' delimiters, the wildcard and GetProperty are exactly the
// record's property list — its delimiter through its end marker — in Ψ
// steps from one ISA lookup, and a FindNodes hit, which sits on its
// record's anchor, takes no Ψ step beyond the search.
func TestNodeReadsTakeTheirBytes(t *testing.T) {
	const alpha = 32
	for name, c := range nodeSchemaCases(t) {
		_, comp := nodeViewsAlpha(t, c.nodes, c.schema, alpha)
		byID := map[NodeID]map[string]string{}
		for _, n := range c.nodes {
			byID[n.ID] = n.Props
		}
		hdr := c.schema.Figure1Header()
		for k, id := range comp.IDs() {
			props := byID[id]
			start := int(comp.Offsets().Get(k))
			body := c.schema.PropsEncodedSize(props) - 1
			if steps := psiSteps(func() { comp.GetProperties(id, nil) }); int(steps) != start%alpha+hdr+body {
				t.Fatalf("%s node %d: wildcard took %v Ψ steps, want %d + %d + %d", name, id, steps, start%alpha, hdr, body)
			}
			for _, pid := range c.schema.IDs() {
				n := len(props[pid])
				steps := int(psiSteps(func() { comp.GetProperty(id, pid) }))
				if steps < hdr+n || steps > 2*(alpha-1)+hdr+n {
					t.Fatalf("%s node %d: GetProperty(%s) of %d bytes took %d Ψ steps", name, id, pid, n, steps)
				}
			}
		}
		if !NodeFileAnchored(c.schema) {
			continue
		}
		_, anch := nodeViewsAlpha(t, c.nodes, c.schema, 0)
		pid := c.schema.IDs()[0]
		for _, id := range anch.IDs() {
			props := byID[id]
			list := c.schema.PropsEncodedSize(props)
			for what, read := range map[string]func(){
				"wildcard":    func() { anch.GetProperties(id, nil) },
				"GetProperty": func() { anch.GetProperty(id, pid) },
			} {
				if steps, lookups := walkCounts(read); int(steps) != list || lookups != 1 {
					t.Fatalf("%s node %d: anchored %s took %v Ψ steps and %v ISA lookups, want its list's %d and 1", name, id, what, steps, lookups, list)
				}
			}
			var hits []NodeID
			if steps, _ := walkCounts(func() { hits = anch.FindNodes(map[string]string{pid: props[pid]}) }); steps != 0 || !slices.Contains(hits, id) {
				t.Fatalf("%s node %d: anchored FindNodes(%q) = %v in %v Ψ steps, want it among the hits in 0", name, id, props[pid], hits, steps)
			}
		}
	}
}

// TestEdgeListsSplitAtDelimiters: edge property lists carry no length
// header, so a range read splits them at their delimiters — two-byte ones
// too, past 24 properties — and a compressed view reads what a raw one
// does and the input holds.
func TestEdgeListsSplitAtDelimiters(t *testing.T) {
	ids := propIDs(40)
	schema := mustSchema(t, ids, 63)
	rng := rand.New(rand.NewSource(37))
	edges := make([]Edge, 300)
	for i := range edges {
		edges[i] = Edge{Src: int64(rng.Intn(12)), Dst: int64(i), Type: int64(rng.Intn(2)), Timestamp: int64(i), Props: randomProps(rng, ids, 6)}
	}
	edges[5].Props = nil
	groups := groupEdges(edges)
	raw, comp := edgeViewsAlpha(t, edges, schema, 0)
	for r := 0; r < raw.NumRecords(); r++ {
		rref, cref := raw.record(r), comp.record(r)
		want := groups[[2]int64{rref.Src, rref.Type}]
		a, errA := raw.GetEdgeDataRange(&rref, 0, rref.Count)
		b, errB := comp.GetEdgeDataRange(&cref, 0, cref.Count)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d: raw %v %v, compressed %v %v", r, a, errA, b, errB)
		}
		for i, d := range a {
			for _, id := range ids {
				if d.Props[id] != want[i].Props[id] {
					t.Fatalf("record %d edge %d: %s = %q, want %q", r, i, id, d.Props[id], want[i].Props[id])
				}
			}
		}
	}
	// A list whose delimiters are out of order is an error, not a value.
	blob, _ := schema.SerializeProps(nil, map[string]string{"p30": "x"})
	bad := strings.Replace(string(blob), string(schema.Delimiter(30)), string(schema.Delimiter(31)), 1)
	if _, _, err := schema.ParseProps([]byte(bad)); err == nil {
		t.Error("a list with a wrong two-byte delimiter parsed")
	}
}

// TestEdgeRangeTakesItsListsSteps: over a compressed EdgeFile a range
// read is exactly its edges' property lists in Ψ steps: it starts on its
// first list's anchor, so there is no walk to get there, and no digit is
// left in the text to walk.
func TestEdgeRangeTakesItsListsSteps(t *testing.T) {
	edges, schema := buildEdges(400)
	groups := groupEdges(edges)
	_, comp := edgeViewsAlpha(t, edges, schema, 0)
	for r := 0; r < comp.NumRecords(); r++ {
		ref := comp.record(r)
		want := groups[[2]int64{ref.Src, ref.Type}]
		for _, iv := range [][2]int{{0, ref.Count}, {0, 1}, {ref.Count / 2, ref.Count}, {1, min(4, ref.Count)}} {
			lists := 0
			for _, e := range want[iv[0]:iv[1]] {
				lists += schema.PropsEncodedSize(e.Props)
			}
			if lists == 0 {
				continue
			}
			steps := psiSteps(func() {
				if _, err := comp.GetEdgeDataRange(&ref, iv[0], iv[1]); err != nil {
					t.Fatal(err)
				}
			})
			if int(steps) != lists {
				t.Fatalf("record %d [%d,%d): %v Ψ steps, want its lists' %d", r, iv[0], iv[1], steps, lists)
			}
		}
	}
}

// TestFindEdgesWalksAtMostItsLists: over a compressed EdgeFile each
// FindEdges hit is placed by a walk to the next list's anchor, so a
// one-property query takes at most its matches' property lists in Ψ
// steps — and reads no offset.
func TestFindEdgesWalksAtMostItsLists(t *testing.T) {
	edges, schema := buildEdges(400)
	groups := groupEdges(edges)
	_, comp := edgeViewsAlpha(t, edges, schema, 0)
	queries := 0
	for _, e := range edges {
		for pid, val := range e.Props {
			q := map[string]string{pid: val}
			var matches []EdgeMatch
			steps := psiSteps(func() { matches = comp.FindEdges(q) })
			bound := 0
			for _, m := range matches {
				bound += schema.PropsEncodedSize(groups[[2]int64{m.Src, m.Type}][m.TimeOrder].Props)
			}
			if len(matches) == 0 || int(steps) > bound {
				t.Fatalf("FindEdges(%v): %d matches in %v Ψ steps, want at most their lists' %d", q, len(matches), steps, bound)
			}
			queries++
		}
	}
	if queries == 0 {
		t.Fatal("no edge has a property to find")
	}
}
