package layout

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"zipg/internal/succinct"
)

func mustSchema(t testing.TB, ids []string, maxLen int) *PropertySchema {
	t.Helper()
	s, err := NewPropertySchema(ids, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFixedCodecRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 4095, 4096, 1 << 30, 1 << 40} {
		w := FixedWidth(v)
		buf := AppendFixed(nil, v, w)
		if got := DecodeFixed(buf); got != v {
			t.Errorf("round trip %d: got %d", v, got)
		}
		// Every digit must be printable and disjoint from delimiters.
		for _, b := range buf {
			if b < 0x20 || b > 0x7E {
				t.Errorf("digit 0x%02x of %d not printable", b, v)
			}
		}
	}
}

func TestFixedCodecQuick(t *testing.T) {
	f := func(v uint64, extra uint8) bool {
		w := FixedWidth(v) + int(extra%3) // wider-than-needed must also work
		buf := AppendFixed(nil, v, w)
		return DecodeFixed(buf) == v && len(buf) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on overflow")
		}
	}()
	AppendFixed(nil, 64, 1)
}

func TestSchemaDelimiters(t *testing.T) {
	// 30 property IDs exercises the one-byte -> two-byte transition.
	ids := make([]string, 30)
	for i := range ids {
		ids[i] = fmt.Sprintf("prop%02d", i)
	}
	s := mustSchema(t, ids, 100)
	seen := map[string]bool{}
	for i := 0; i < s.NumProperties(); i++ {
		d := string(s.Delimiter(i))
		if seen[d] {
			t.Fatalf("duplicate delimiter %q", d)
		}
		seen[d] = true
		if len(d) == 1 && (d[0] < firstPropDelim || d[0] > lastPropDelim) {
			t.Fatalf("one-byte delimiter out of range: %q", d)
		}
		if len(d) == 2 && d[0] != twoByteLead {
			t.Fatalf("two-byte delimiter bad lead: %q", d)
		}
	}
	// The paper's threshold: 24 one-byte delimiters here, then two-byte.
	if len(s.Delimiter(23)) != 1 || len(s.Delimiter(24)) != 2 {
		t.Fatalf("one/two-byte transition wrong")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewPropertySchema([]string{"a", "a"}, 10); err == nil {
		t.Error("duplicate IDs should fail")
	}
	s := mustSchema(t, []string{"age"}, 63)
	if _, err := s.SerializeProps(nil, map[string]string{"missing": "x"}); err == nil {
		t.Error("unknown property should fail")
	}
	if _, err := s.SerializeProps(nil, map[string]string{"age": "bad\x01byte"}); err == nil {
		t.Error("non-printable value should fail")
	}
	long := make([]byte, 64)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.SerializeProps(nil, map[string]string{"age": string(long)}); err == nil {
		t.Error("value longer than schema max should fail")
	}
}

func TestSerializeParsePropsRoundTrip(t *testing.T) {
	s := mustSchema(t, []string{"age", "location", "nickname"}, 100)
	cases := []map[string]string{
		{"age": "42", "location": "Ithaca", "nickname": "Ally"},
		{"location": "Princeton", "nickname": "Bobby"}, // missing age
		{"age": "24", "nickname": "Cat"},
		{}, // all missing
		{"age": ""},
	}
	for _, props := range cases {
		blob, err := s.SerializeProps(nil, props)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != s.PropsEncodedSize(props) {
			t.Fatalf("PropsEncodedSize=%d, actual %d", s.PropsEncodedSize(props), len(blob))
		}
		got, n, err := s.ParseProps(blob)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(blob) {
			t.Fatalf("consumed %d of %d", n, len(blob))
		}
		want := map[string]string{}
		for k, v := range props {
			if v != "" {
				want[k] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v -> %v", want, got)
		}
	}
}

func TestParsePropsErrors(t *testing.T) {
	s := mustSchema(t, []string{"a", "b"}, 10)
	if _, _, err := s.ParseProps(nil); err == nil {
		t.Error("nil record should fail")
	}
	blob, _ := s.SerializeProps(nil, map[string]string{"a": "hello"})
	if _, _, err := s.ParseProps(blob[:len(blob)-1]); err == nil {
		t.Error("truncated record should fail")
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] = 'x'
	if _, _, err := s.ParseProps(bad); err == nil {
		t.Error("corrupt end delimiter should fail")
	}
}

// buildNodes makes a deterministic node set in the TAO property style.
func buildNodes(n int) ([]Node, *PropertySchema) {
	schema, err := NewPropertySchema([]string{"age", "location", "nickname", "status"}, 200)
	if err != nil {
		panic(err)
	}
	cities := []string{"Ithaca", "Princeton", "Berkeley", "Chicago"}
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID: int64(i * 3), // non-contiguous IDs
			Props: map[string]string{
				"age":      fmt.Sprint(20 + i%50),
				"location": cities[i%len(cities)],
				"nickname": fmt.Sprintf("user%d", i),
			},
		}
		if i%5 == 0 {
			delete(nodes[i].Props, "age") // some nodes miss properties
		}
		if i%7 == 0 {
			nodes[i].Props["status"] = "online"
		}
	}
	return nodes, schema
}

// nodeViews builds a raw and a compressed view over the same NodeFile so
// every test can assert both paths agree.
func nodeViews(t testing.TB, nodes []Node, schema *PropertySchema) (raw, compressed *NodeFileView) {
	t.Helper()
	flat, ids, offs, err := BuildNodeFile(nodes, schema)
	if err != nil {
		t.Fatal(err)
	}
	raw = NewNodeFileView(NewRawSource(flat), schema, ids, PackOffsets(offs), nil)
	st := succinct.Build(flat, succinct.Options{SamplingRate: 8})
	compressed = NewNodeFileView(st, schema, ids, PackOffsets(offs), nil)
	return raw, compressed
}

func TestNodeFileGetProperty(t *testing.T) {
	nodes, schema := buildNodes(60)
	raw, comp := nodeViews(t, nodes, schema)
	for _, v := range []*NodeFileView{raw, comp} {
		for _, n := range nodes {
			for pid, want := range n.Props {
				got, ok := v.GetProperty(n.ID, pid)
				if !ok || got != want {
					t.Fatalf("GetProperty(%d,%s) = %q,%v want %q", n.ID, pid, got, ok, want)
				}
			}
			if _, ok := v.GetProperty(n.ID, "nope"); ok {
				t.Fatalf("unknown property should miss")
			}
		}
		if _, ok := v.GetProperty(999_999, "age"); ok {
			t.Fatal("missing node should miss")
		}
	}
}

func TestNodeFileGetPropertiesWildcard(t *testing.T) {
	nodes, schema := buildNodes(20)
	_, comp := nodeViews(t, nodes, schema)
	for _, n := range nodes {
		props, ok := comp.GetAllProps(n.ID)
		if !ok {
			t.Fatalf("node %d missing", n.ID)
		}
		want := map[string]string{}
		for k, val := range n.Props {
			if val != "" {
				want[k] = val
			}
		}
		if !reflect.DeepEqual(props, want) {
			t.Fatalf("GetAllProps(%d) = %v, want %v", n.ID, props, want)
		}
		// Selected subset, including an absent one.
		vals, _ := comp.GetProperties(n.ID, []string{"location", "definitely-absent"})
		if vals[0] != n.Props["location"] || vals[1] != "" {
			t.Fatalf("GetProperties(%d) = %v", n.ID, vals)
		}
	}
}

// TestNodeRecordCutShort: a source that ends inside a value the record's
// length header promised — what a damaged archive amounts to — makes
// every read that needs the value miss, over raw and compressed sources,
// while the whole values before the cut still read.
func TestNodeRecordCutShort(t *testing.T) {
	nodes, schema := buildNodes(60)
	flat, ids, offs, err := BuildNodeFile(nodes, schema)
	if err != nil {
		t.Fatal(err)
	}
	last := nodes[len(nodes)-1] // the highest ID: its record ends the file
	nick := last.Props["nickname"]
	at := int(offs[len(offs)-1]) + bytes.Index(flat[offs[len(offs)-1]:], []byte(nick))
	for _, cut := range []int{at, at + len(nick)/2, at + len(nick) - 1} {
		sources := map[string]ByteSource{
			"raw":        NewRawSource(flat[:cut]),
			"compressed": succinct.Build(flat[:cut], succinct.Options{SamplingRate: 4}),
		}
		for kind, src := range sources {
			v := NewNodeFileView(src, schema, ids, PackOffsets(offs), nil)
			where := fmt.Sprintf("%s source cut at %d, inside %q", kind, cut, nick)
			if got, ok := v.GetProperty(last.ID, "nickname"); ok || got != "" {
				t.Errorf("%s: GetProperty(nickname) = %q, %v", where, got, ok)
			}
			if got, ok := v.GetProperties(last.ID, nil); ok || got != nil {
				t.Errorf("%s: GetProperties(all) = %q, %v", where, got, ok)
			}
			if got, ok := v.GetAllProps(last.ID); ok || got != nil {
				t.Errorf("%s: GetAllProps = %v, %v", where, got, ok)
			}
			if got, ok := v.GetProperty(last.ID, "location"); !ok || got != last.Props["location"] {
				t.Errorf("%s: GetProperty(location) before the cut = %q, %v", where, got, ok)
			}
			if got, ok := v.GetProperties(last.ID, []string{"age", "location"}); !ok || got[0] != last.Props["age"] || got[1] != last.Props["location"] {
				t.Errorf("%s: GetProperties(age, location) before the cut = %q, %v", where, got, ok)
			}
		}
	}
}

func TestNodeFileFindNodes(t *testing.T) {
	nodes, schema := buildNodes(80)
	raw, comp := nodeViews(t, nodes, schema)
	for _, v := range []*NodeFileView{raw, comp} {
		got := v.FindNodes(map[string]string{"location": "Ithaca"})
		var want []NodeID
		for _, n := range nodes {
			if n.Props["location"] == "Ithaca" {
				want = append(want, n.ID)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FindNodes(Ithaca) = %v, want %v", got, want)
		}

		// Conjunction.
		got = v.FindNodes(map[string]string{"location": "Ithaca", "status": "online"})
		want = nil
		for _, n := range nodes {
			if n.Props["location"] == "Ithaca" && n.Props["status"] == "online" {
				want = append(want, n.ID)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FindNodes(conj) = %v, want %v", got, want)
		}

		// Exact match must not match substrings or values of other props.
		if res := v.FindNodes(map[string]string{"location": "Ithac"}); res != nil {
			t.Fatalf("prefix matched: %v", res)
		}
		if res := v.FindNodes(map[string]string{"nickname": "Ithaca"}); res != nil {
			t.Fatalf("cross-property match: %v", res)
		}
		if res := v.FindNodes(nil); res != nil {
			t.Fatalf("empty query matched: %v", res)
		}
	}
}

func TestNodeFileMatchesProps(t *testing.T) {
	nodes, schema := buildNodes(10)
	_, comp := nodeViews(t, nodes, schema)
	n := nodes[1]
	if !comp.MatchesProps(n.ID, map[string]string{"location": n.Props["location"]}) {
		t.Error("should match own location")
	}
	if comp.MatchesProps(n.ID, map[string]string{"location": "Nowhere"}) {
		t.Error("should not match wrong location")
	}
}

// buildEdges makes a deterministic edge set with several types and
// timestamps.
func buildEdges(nEdges int) ([]Edge, *PropertySchema) {
	schema, err := NewPropertySchema([]string{"weight", "note"}, 200)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(99))
	edges := make([]Edge, nEdges)
	for i := range edges {
		edges[i] = Edge{
			Src:       int64(rng.Intn(10)),
			Dst:       int64(rng.Intn(1000)),
			Type:      int64(rng.Intn(3)),
			Timestamp: int64(rng.Intn(100000)),
			Props: map[string]string{
				"weight": fmt.Sprint(rng.Intn(100)),
				"note":   fmt.Sprintf("edge-%d", i),
			},
		}
	}
	return edges, schema
}

func edgeViews(t testing.TB, edges []Edge, schema *PropertySchema) (raw, comp *EdgeFileView) {
	t.Helper()
	flat, _, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	raw = NewEdgeFileView(NewRawSource(flat), schema)
	st := succinct.Build(flat, succinct.Options{SamplingRate: 8})
	comp = NewEdgeFileView(st, schema)
	return raw, comp
}

// groupEdges replicates the builder's grouping for verification.
func groupEdges(edges []Edge) map[[2]int64][]Edge {
	g := map[[2]int64][]Edge{}
	for _, e := range edges {
		k := [2]int64{e.Src, e.Type}
		g[k] = append(g[k], e)
	}
	for k := range g {
		es := g[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].Timestamp < es[j].Timestamp })
	}
	return g
}

func TestEdgeFileRecordsAndData(t *testing.T) {
	edges, schema := buildEdges(400)
	groups := groupEdges(edges)
	raw, comp := edgeViews(t, edges, schema)
	for _, v := range []*EdgeFileView{raw, comp} {
		for k, want := range groups {
			ref, ok := v.GetEdgeRecord(k[0], k[1])
			if !ok {
				t.Fatalf("record (%d,%d) missing", k[0], k[1])
			}
			if ref.Count != len(want) {
				t.Fatalf("record (%d,%d) count=%d, want %d", k[0], k[1], ref.Count, len(want))
			}
			for i, e := range want {
				d, err := v.GetEdgeData(&ref, i)
				if err != nil {
					t.Fatal(err)
				}
				if d.Dst != e.Dst || d.Timestamp != e.Timestamp {
					t.Fatalf("edge data (%d,%d)[%d] = %+v, want dst=%d ts=%d", k[0], k[1], i, d, e.Dst, e.Timestamp)
				}
				if !reflect.DeepEqual(d.Props, e.Props) {
					t.Fatalf("edge props mismatch: %v vs %v", d.Props, e.Props)
				}
			}
			// Destinations in one call matches per-edge destinations.
			dsts := v.Destinations(&ref)
			for i, e := range want {
				if dsts[i] != e.Dst {
					t.Fatalf("Destinations[%d] = %d, want %d", i, dsts[i], e.Dst)
				}
			}
		}
		// Missing record.
		if _, ok := v.GetEdgeRecord(999, 0); ok {
			t.Fatal("nonexistent record found")
		}
		if _, ok := v.GetEdgeRecord(1, 99); ok {
			t.Fatal("nonexistent type found")
		}
	}
}

func TestEdgeFileWildcardType(t *testing.T) {
	edges, schema := buildEdges(300)
	groups := groupEdges(edges)
	_, comp := edgeViews(t, edges, schema)
	perSrc := map[int64]int{}
	for k := range groups {
		perSrc[k[0]]++
	}
	for src, wantRecs := range perSrc {
		refs := comp.GetEdgeRecords(src)
		if len(refs) != wantRecs {
			t.Fatalf("GetEdgeRecords(%d) = %d records, want %d", src, len(refs), wantRecs)
		}
		for _, ref := range refs {
			if ref.Src != src {
				t.Fatalf("record src=%d, want %d", ref.Src, src)
			}
			if ref.Count != len(groups[[2]int64{src, ref.Type}]) {
				t.Fatalf("wildcard record count wrong")
			}
		}
	}
}

func TestEdgeFileKeyPrefixSafety(t *testing.T) {
	// Node 1 and node 12: the key for src=1 must not match src=12, and
	// etype 2 must not match etype 21.
	schema := mustSchema(t, []string{"p"}, 10)
	edges := []Edge{
		{Src: 1, Dst: 5, Type: 2, Timestamp: 10},
		{Src: 12, Dst: 6, Type: 2, Timestamp: 10},
		{Src: 1, Dst: 7, Type: 21, Timestamp: 10},
	}
	_, comp := edgeViews(t, edges, schema)
	ref, ok := comp.GetEdgeRecord(1, 2)
	if !ok || ref.Count != 1 {
		t.Fatalf("src=1,t=2: ok=%v count=%d", ok, ref.Count)
	}
	if d, _ := comp.GetEdgeData(&ref, 0); d.Dst != 5 {
		t.Fatalf("wrong record matched: dst=%d", d.Dst)
	}
	if refs := comp.GetEdgeRecords(1); len(refs) != 2 {
		t.Fatalf("GetEdgeRecords(1) = %d, want 2", len(refs))
	}
}

func TestEdgeFileTimeRange(t *testing.T) {
	schema := mustSchema(t, []string{"p"}, 10)
	var edges []Edge
	for i := 0; i < 50; i++ {
		edges = append(edges, Edge{Src: 7, Dst: int64(i), Type: 0, Timestamp: int64(i * 10)})
	}
	raw, comp := edgeViews(t, edges, schema)
	for _, v := range []*EdgeFileView{raw, comp} {
		ref, _ := v.GetEdgeRecord(7, 0)
		beg, end, err := v.TimeRange(&ref, 100, 200)
		if err != nil || beg != 10 || end != 20 {
			t.Fatalf("TimeRange[100,200) = [%d,%d), want [10,20)", beg, end)
		}
		// Inclusive lower, exclusive upper.
		beg, end, err = v.TimeRange(&ref, 0, 1)
		if err != nil || beg != 0 || end != 1 {
			t.Fatalf("TimeRange[0,1) = [%d,%d)", beg, end)
		}
		// Out of range.
		beg, end, err = v.TimeRange(&ref, 10_000, 20_000)
		if err != nil || beg != end {
			t.Fatalf("empty range not empty: [%d,%d)", beg, end)
		}
	}

	// On a cold ref the header's span answers a window that covers or
	// misses the whole record; whatever the bounds — inverted too — the
	// answer is what binary searches over the input timestamps give.
	edges, schema = buildEdges(300)
	raw, comp = edgeViews(t, edges, schema)
	rng := rand.New(rand.NewSource(13))
	for k, want := range groupEdges(edges) {
		for probe := 0; probe < 12; probe++ {
			tLo := int64(rng.Intn(120000)) - 10000
			tHi := int64(rng.Intn(120000)) - 10000
			wantBeg := sort.Search(len(want), func(i int) bool { return want[i].Timestamp >= tLo })
			wantEnd := sort.Search(len(want), func(i int) bool { return want[i].Timestamp >= tHi })
			for _, v := range []*EdgeFileView{raw, comp} {
				ref, _ := v.GetEdgeRecord(k[0], k[1])
				if beg, end, err := v.TimeRange(&ref, tLo, tHi); err != nil || beg != wantBeg || end != wantEnd {
					t.Fatalf("record (%d,%d) TimeRange(%d,%d) = [%d,%d), want [%d,%d)", k[0], k[1], tLo, tHi, beg, end, wantBeg, wantEnd)
				}
			}
		}
	}
}

func TestEdgeFileTimestampsSorted(t *testing.T) {
	edges, schema := buildEdges(500)
	_, comp := edgeViews(t, edges, schema)
	for k := range groupEdges(edges) {
		ref, _ := comp.GetEdgeRecord(k[0], k[1])
		var prev int64 = -1
		for i := 0; i < ref.Count; i++ {
			ts, err := comp.Timestamp(&ref, i)
			if err != nil || ts < prev {
				t.Fatalf("timestamps unsorted in (%d,%d) at %d", k[0], k[1], i)
			}
			prev = ts
		}
	}
}

func TestEdgeFileQuickRoundTrip(t *testing.T) {
	// Property: any edge set survives a build+parse round trip over both
	// raw and compressed sources.
	schema := mustSchema(t, []string{"p"}, 64)
	f := func(raw []struct {
		Src, Dst uint16
		Type     uint8
		Ts       uint32
	}) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		edges := make([]Edge, len(raw))
		for i, r := range raw {
			edges[i] = Edge{
				Src: int64(r.Src % 20), Dst: int64(r.Dst),
				Type: int64(r.Type % 4), Timestamp: int64(r.Ts),
				Props: map[string]string{"p": fmt.Sprint(i)},
			}
		}
		flat, _, err := BuildEdgeFile(edges, schema)
		if err != nil {
			return false
		}
		v := NewEdgeFileView(NewRawSource(flat), schema)
		groups := groupEdges(edges)
		for k, want := range groups {
			ref, ok := v.GetEdgeRecord(k[0], k[1])
			if !ok || ref.Count != len(want) {
				return false
			}
			for i, e := range want {
				d, err := v.GetEdgeData(&ref, i)
				if err != nil || d.Dst != e.Dst || d.Timestamp != e.Timestamp {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildNodeFileDuplicateIDs(t *testing.T) {
	schema := mustSchema(t, []string{"a"}, 10)
	_, _, _, err := BuildNodeFile([]Node{{ID: 1}, {ID: 1}}, schema)
	if err == nil {
		t.Error("duplicate node IDs should fail")
	}
}

func TestBuildEdgeFileNegativeValues(t *testing.T) {
	schema := mustSchema(t, []string{"a"}, 10)
	if _, _, err := BuildEdgeFile([]Edge{{Src: -1}}, schema); err == nil {
		t.Error("negative src should fail")
	}
	if _, _, err := BuildEdgeFile([]Edge{{Src: 1, Dst: 1, Timestamp: -5}}, schema); err == nil {
		t.Error("negative timestamp should fail")
	}
}

func TestRecordEnd(t *testing.T) {
	schema := mustSchema(t, []string{"p"}, 32)
	edges := []Edge{
		{Src: 1, Dst: 2, Type: 0, Timestamp: 5, Props: map[string]string{"p": "x"}},
		{Src: 1, Dst: 3, Type: 0, Timestamp: 6},
		{Src: 2, Dst: 4, Type: 0, Timestamp: 7},
	}
	flat, _, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	v := NewEdgeFileView(NewRawSource(flat), schema)
	r1, _ := v.GetEdgeRecord(1, 0)
	r2, _ := v.GetEdgeRecord(2, 0)
	if v.RecordEnd(&r1) != r2.Offset {
		t.Fatalf("RecordEnd(r1)=%d, next record at %d", v.RecordEnd(&r1), r2.Offset)
	}
	if v.RecordEnd(&r2) != int64(len(flat)) {
		t.Fatalf("RecordEnd(last)=%d, file len %d", v.RecordEnd(&r2), len(flat))
	}
}

func TestFindEdgesLayout(t *testing.T) {
	schema := mustSchema(t, []string{"note", "weight"}, 64)
	edges := []Edge{
		{Src: 1, Dst: 2, Type: 0, Timestamp: 10, Props: map[string]string{"note": "alpha", "weight": "3"}},
		{Src: 1, Dst: 3, Type: 0, Timestamp: 20, Props: map[string]string{"note": "beta", "weight": "3"}},
		{Src: 2, Dst: 1, Type: 1, Timestamp: 30, Props: map[string]string{"note": "alpha", "weight": "7"}},
		{Src: 5, Dst: 1, Type: 0, Timestamp: 40, Props: map[string]string{"note": "alphabet"}},
	}
	flat, index, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(index) != 3 { // (1,0), (2,1), (5,0)
		t.Fatalf("index = %+v", index)
	}
	for _, src := range []ByteSource{NewRawSource(flat), succinct.Build(flat, succinct.Options{SamplingRate: 4})} {
		v := NewEdgeFileView(src, schema)
		got := v.FindEdges(index, map[string]string{"note": "alpha"})
		want := []EdgeMatch{{Src: 1, Type: 0, TimeOrder: 0}, {Src: 2, Type: 1, TimeOrder: 0}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FindEdges(alpha) = %+v, want %+v", got, want)
		}
		// Conjunction.
		got = v.FindEdges(index, map[string]string{"note": "alpha", "weight": "7"})
		if !reflect.DeepEqual(got, []EdgeMatch{{Src: 2, Type: 1, TimeOrder: 0}}) {
			t.Fatalf("FindEdges(conj) = %+v", got)
		}
		// Exact match: "alphabet" must not hit "alpha"; unknown ID empty.
		if got := v.FindEdges(index, map[string]string{"note": "alph"}); got != nil {
			t.Fatalf("prefix matched: %+v", got)
		}
		if got := v.FindEdges(index, map[string]string{"nope": "x"}); got != nil {
			t.Fatalf("unknown property matched: %+v", got)
		}
		// TimeOrder resolution within a record.
		got = v.FindEdges(index, map[string]string{"note": "beta"})
		if !reflect.DeepEqual(got, []EdgeMatch{{Src: 1, Type: 0, TimeOrder: 1}}) {
			t.Fatalf("FindEdges(beta) = %+v", got)
		}
	}
}

// TestBuildFilesAllocateOnce checks the builders' size bounds: exact for
// the NodeFile, and for the EdgeFile at least the file and close to it —
// had the file outgrown the bound, append would have left a quarter of it
// spare.
func TestBuildFilesAllocateOnce(t *testing.T) {
	nodes, nodeSchema := buildNodes(500)
	flat, _, _, err := BuildNodeFile(nodes, nodeSchema)
	if err != nil {
		t.Fatal(err)
	}
	if cap(flat) != len(flat) {
		t.Errorf("NodeFile of %d bytes in a buffer of %d", len(flat), cap(flat))
	}
	edges, edgeSchema := buildEdges(5000)
	flat, _, err = BuildEdgeFile(edges, edgeSchema)
	if err != nil {
		t.Fatal(err)
	}
	if spare := cap(flat) - len(flat); spare > len(flat)/10 {
		t.Errorf("EdgeFile of %d bytes in a buffer of %d", len(flat), cap(flat))
	}
}
