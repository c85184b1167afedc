package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"zipg/internal/succinct"
	"zipg/internal/telemetry"
)

// Differential tests for the range readers: a batch or range accessor
// must return byte-identical results to a scalar loop over the same
// requests, on raw and compressed sources, at several sampling rates.

// edgeViewsAlpha builds raw and compressed views of edges: the
// compressed one over a store sampled at the lists' starts, as a shard
// builds it, for alpha 0, and on the α grid otherwise.
func edgeViewsAlpha(t testing.TB, edges []Edge, schema *PropertySchema, alpha int) (raw, comp *EdgeFileView) {
	t.Helper()
	flat, cols, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	raw = NewEdgeFileView(NewRawSource(flat), schema, cols, nil)
	comp = NewEdgeFileView(edgeStore(flat, schema, alpha), schema, cols, nil)
	return raw, comp
}

// edgeStore compresses an EdgeFile's text: at its lists' starts for
// alpha 0, on the α grid otherwise.
func edgeStore(flat []byte, schema *PropertySchema, alpha int) *succinct.Store {
	if alpha == 0 {
		return succinct.BuildAnchored(flat, schema.ListAnchor(), nil)
	}
	return succinct.Build(flat, succinct.Options{SamplingRate: alpha})
}

// TestReadRecordsAgainstScalar: ReadRecords(lo, hi) is each record's
// handle and its GetEdgeData loop, for runs of records anywhere in the
// file.
func TestReadRecordsAgainstScalar(t *testing.T) {
	edges, schema := buildEdges(400)
	for i := range edges {
		if i%5 == 0 {
			edges[i].Props = nil
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, alpha := range []int{0, 4, 32} {
		raw, comp := edgeViewsAlpha(t, edges, schema, alpha)
		n := raw.NumRecords()
		for _, v := range []*EdgeFileView{raw, comp} {
			for trial := 0; trial < 10; trial++ {
				lo := rng.Intn(n)
				hi := lo + rng.Intn(n-lo+1)
				if trial == 0 {
					lo, hi = 0, n
				}
				refs, data, err := v.ReadRecords(lo, hi)
				if err != nil || len(refs) != hi-lo || len(data) != hi-lo {
					t.Fatalf("α=%d ReadRecords(%d,%d): %d refs, %d records, %v", alpha, lo, hi, len(refs), len(data), err)
				}
				for k, ref := range refs {
					want := v.record(lo + k)
					if ref != want {
						t.Fatalf("α=%d record %d: %+v, want %+v", alpha, lo+k, ref, want)
					}
					for i := 0; i < ref.Count; i++ {
						d, err := v.GetEdgeData(&ref, i)
						if err != nil || !reflect.DeepEqual(data[k][i], d) {
							t.Fatalf("α=%d record %d edge %d: %+v, want %+v, %v", alpha, lo+k, i, data[k][i], d, err)
						}
					}
				}
			}
		}
	}
}

// TestGetEdgeDataRangeAgainstLoop: GetEdgeDataRange(ref, b, e) is the
// GetEdgeData(ref, i) loop over [b, e) — over raw and compressed sources,
// sampled at the lists' starts and at α ∈ {4, 32} — and an interval out
// of range is an error.
func TestGetEdgeDataRangeAgainstLoop(t *testing.T) {
	edges, schema := buildEdges(400)
	for i := range edges {
		// One record with no properties at all, and property-less edges
		// inside the others: their lists hold only the length header and
		// the end marker.
		if (edges[i].Src == 3 && edges[i].Type == 1) || i%7 == 0 {
			edges[i].Props = nil
		}
	}
	rng := rand.New(rand.NewSource(17))
	sawBare := false
	for _, alpha := range []int{0, 4, 32} {
		raw, comp := edgeViewsAlpha(t, edges, schema, alpha)
		for r := 0; r < raw.NumRecords(); r++ {
			// The reference: one edge at a time off the raw bytes.
			rref := raw.record(r)
			want := make([]EdgeData, rref.Count)
			for i := range want {
				var err error
				if want[i], err = raw.GetEdgeData(&rref, i); err != nil {
					t.Fatal(err)
				}
			}
			n := len(want)
			if !slices.ContainsFunc(want, func(e EdgeData) bool { return len(e.Props) > 0 }) {
				sawBare = true
			}
			for _, v := range []*EdgeFileView{raw, comp} {
				b := rng.Intn(n + 1)
				for _, iv := range [][2]int{{0, n}, {b, b + rng.Intn(n-b+1)}, {n - 1, n}} {
					ref := v.record(r)
					got, err := v.GetEdgeDataRange(&ref, iv[0], iv[1])
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != iv[1]-iv[0] || (len(got) > 0 && !reflect.DeepEqual(got, want[iv[0]:iv[1]])) {
						t.Fatalf("α=%d (%d,%d) [%d,%d): got %v want %v", alpha, ref.Src, ref.Type, iv[0], iv[1], got, want[iv[0]:iv[1]])
					}
				}
			}
		}
	}
	if !sawBare {
		t.Error("no record without properties was read")
	}
	// Intervals: empty and inverted are nil, out of range is an error.
	_, comp := edgeViewsAlpha(t, edges, schema, 0)
	ref := comp.record(0)
	n := ref.Count
	if allocs := testing.AllocsPerRun(100, func() {
		comp.Timestamp(&ref, 0)
		comp.TimeRange(&ref, 10, 50000)
	}); allocs != 0 {
		t.Errorf("Timestamp/TimeRange allocated %v per run, want 0", allocs)
	}
	// The record without properties: a range read of it is its columns
	// alone — its property lists are empty, so they are not read.
	bare, _ := comp.GetEdgeRecord(3, 1)
	if got, err := comp.GetEdgeDataRange(&bare, 1, bare.Count); err != nil || len(got) != bare.Count-1 {
		t.Errorf("property-less record: %d edges, %v; want %d", len(got), err, bare.Count-1)
	} else if steps := psiSteps(func() { comp.GetEdgeDataRange(&bare, 1, bare.Count) }); steps != 0 {
		t.Errorf("property-less record: %v Ψ steps, want none", steps)
	}
	for _, r := range [][2]int{{0, 0}, {n, n}, {n, 0}, {-3, -1}, {n + 1, n + 4}, {-1, n}, {0, n + 1}} {
		got, err := comp.GetEdgeDataRange(&ref, r[0], r[1])
		wantErr := r[0] < r[1] && (r[0] < 0 || r[1] > n)
		if (err != nil) != wantErr || got != nil {
			t.Errorf("GetEdgeDataRange(%d,%d) of %d = %v, %v; want error %v", r[0], r[1], n, got, err, wantErr)
		}
	}
}

// psiSteps runs fn with telemetry on and returns the Ψ steps it took.
func psiSteps(fn func()) float64 {
	steps, _ := walkCounts(fn)
	return steps
}

// walkCounts returns the Ψ steps and the ISA lookups fn takes.
func walkCounts(fn func()) (steps, lookups float64) {
	prev := telemetry.SetEnabled(true)
	before := telemetry.TakeSnapshot()
	fn()
	d := telemetry.Delta(before, telemetry.TakeSnapshot())
	telemetry.SetEnabled(prev)
	return d["zipg_succinct_psi_steps_total"], d["zipg_succinct_isa_lookups_total"]
}

// touchSource is a RawSource that counts how often each byte was read.
type touchSource struct {
	*RawSource
	hits  []int
	reads int
}

func (s *touchSource) Extract(off, n int) []byte {
	b := s.RawSource.Extract(off, n)
	s.reads++
	for i := range b {
		s.hits[off+i]++
	}
	return b
}

func (s *touchSource) ExtractAppend(dst []byte, off, n int) []byte {
	return append(dst, s.Extract(off, n)...)
}

// TestEdgeRangeReadsItsLists: a range read is one read of the text, and
// what it reads is the interval's property lists, each byte once.
func TestEdgeRangeReadsItsLists(t *testing.T) {
	schema := mustSchema(t, []string{"weight"}, 20)
	const n = 100
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: 4, Dst: int64(1000 + i), Type: 2, Timestamp: int64(50 + 3*i), Props: map[string]string{"weight": fmt.Sprint(i)}}
	}
	edges = append(edges, Edge{Src: 5, Dst: 1, Type: 0, Timestamp: 1, Props: map[string]string{"weight": "x"}})
	flat, cols, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{2, 9}, {0, 5}, {7, 40}, {30, 31}, {0, n}, {n - 1, n}} {
		src := &touchSource{RawSource: NewRawSource(flat), hits: make([]int, len(flat))}
		v := NewEdgeFileView(src, schema, cols, nil)
		ref, _ := v.GetEdgeRecord(4, 2)
		got, err := v.GetEdgeDataRange(&ref, r[0], r[1])
		if err != nil || len(got) != r[1]-r[0] || got[0].Props["weight"] != fmt.Sprint(r[0]) {
			t.Fatalf("[%d,%d): %v, %v", r[0], r[1], got, err)
		}
		from, to := int(cols.Props.Get(r[0])), int(cols.Props.Get(r[1]))
		for off, hits := range src.hits {
			if want := off >= from && off < to; (hits == 1) != want || hits > 1 {
				t.Fatalf("[%d,%d): byte %d read %d times (the lists are [%d,%d))", r[0], r[1], off, hits, from, to)
			}
		}
		if src.reads != 1 {
			t.Errorf("[%d,%d): %d reads, want 1", r[0], r[1], src.reads)
		}
	}
}

// TestEdgeColumnsRawAgainstCompressed holds a view over the compressed
// text to one over the raw text and both to the input: every record,
// every TimeOrder interval, TimeRange at every timestamp boundary, and
// FindEdges on every property value — over the store sampled at the
// lists' starts and, for FindEdges, on the α grid at α ∈ {4, 8, 32}.
func TestEdgeColumnsRawAgainstCompressed(t *testing.T) {
	edges, schema := buildEdges(300)
	for i := range edges {
		edges[i].Timestamp %= 50 // equal timestamps in a record
		if i%9 == 0 {
			edges[i].Props = nil
		}
	}
	groups := groupEdges(edges)
	raw, comp := edgeViewsAlpha(t, edges, schema, 0)
	if raw.NumRecords() != len(groups) {
		t.Fatalf("%d records, want %d", raw.NumRecords(), len(groups))
	}
	for r := 0; r < raw.NumRecords(); r++ {
		rref, cref := raw.record(r), comp.record(r)
		want := groups[[2]int64{rref.Src, rref.Type}]
		if rref != cref || rref.Count != len(want) {
			t.Fatalf("record %d: raw %+v, compressed %+v, want %d edges", r, rref, cref, len(want))
		}
		for beg := 0; beg <= len(want); beg++ {
			for end := beg; end <= len(want); end++ {
				a, errA := raw.GetEdgeDataRange(&rref, beg, end)
				b, errB := comp.GetEdgeDataRange(&cref, beg, end)
				if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
					t.Fatalf("record (%d,%d) [%d,%d): raw %v %v, compressed %v %v", rref.Src, rref.Type, beg, end, a, errA, b, errB)
				}
				for i, d := range a {
					e := want[beg+i]
					if d.Dst != e.Dst || d.Timestamp != e.Timestamp || len(d.Props) != len(e.Props) || len(e.Props) > 0 && !reflect.DeepEqual(d.Props, e.Props) {
						t.Fatalf("record (%d,%d) edge %d: %+v, want %+v", rref.Src, rref.Type, beg+i, d, e)
					}
				}
			}
		}
		for _, e := range want {
			for _, lo := range []int64{e.Timestamp - 1, e.Timestamp, e.Timestamp + 1} {
				for _, hi := range []int64{e.Timestamp - 1, e.Timestamp, e.Timestamp + 1, 1 << 62} {
					wantBeg := sort.Search(len(want), func(i int) bool { return want[i].Timestamp >= lo })
					wantEnd := sort.Search(len(want), func(i int) bool { return want[i].Timestamp >= hi })
					for _, v := range []*EdgeFileView{raw, comp} {
						ref := v.record(r)
						if beg, end := v.TimeRange(&ref, lo, hi); beg != wantBeg || end != wantEnd {
							t.Fatalf("record (%d,%d) TimeRange(%d,%d) = [%d,%d), want [%d,%d)", ref.Src, ref.Type, lo, hi, beg, end, wantBeg, wantEnd)
						}
					}
				}
			}
		}
	}
	grids := []*EdgeFileView{comp}
	for _, alpha := range []int{4, 8, 32} {
		_, grid := edgeViewsAlpha(t, edges, schema, alpha)
		grids = append(grids, grid)
	}
	for i, e := range edges {
		for pid, val := range e.Props {
			q := map[string]string{pid: val}
			if i%3 == 0 {
				q = e.Props
			}
			got := raw.FindEdges(q)
			var want []EdgeMatch
			for k, g := range groups {
				for order, x := range g {
					if hasAll(x.Props, q) {
						want = append(want, EdgeMatch{Src: k[0], Type: k[1], TimeOrder: order})
					}
				}
			}
			sortMatches(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("FindEdges(%v): raw %v, want %v", q, got, want)
			}
			for k, v := range grids {
				if other := v.FindEdges(q); !reflect.DeepEqual(other, want) {
					t.Fatalf("FindEdges(%v): compressed (view %d) %v, want %v", q, k, other, want)
				}
			}
		}
	}
}

func hasAll(props, q map[string]string) bool {
	for k, v := range q {
		if props[k] != v {
			return false
		}
	}
	return true
}

func sortMatches(ms []EdgeMatch) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.TimeOrder < b.TimeOrder
	})
}

// TestColumnReadsTakeNoPsiSteps: locating a record, its count, its
// timestamps, its time windows and its destinations read no compressed
// byte.
func TestColumnReadsTakeNoPsiSteps(t *testing.T) {
	edges, schema := buildEdges(400)
	_, comp := edgeViewsAlpha(t, edges, schema, 0)
	steps := psiSteps(func() {
		for k := range groupEdges(edges) {
			ref, ok := comp.GetEdgeRecord(k[0], k[1])
			if !ok || ref.Count == 0 {
				t.Fatalf("record (%d,%d) missing", k[0], k[1])
			}
			comp.TimeRange(&ref, 20000, 60000)
			comp.Timestamp(&ref, ref.Count-1)
			comp.Destinations(&ref)
			comp.GetEdgeRecords(k[0])
		}
	})
	if steps != 0 {
		t.Errorf("record location, Count, TimeRange, Timestamp, Destinations took %v Ψ steps, want 0", steps)
	}
}

// TestEdgeRecordCutShort: a text that ends inside a record's property
// lists — what a damaged source amounts to — is an error from every read
// that needs the missing bytes, over raw and compressed sources, and a
// panic from none; the columns still answer.
func TestEdgeRecordCutShort(t *testing.T) {
	schema := mustSchema(t, []string{"weight"}, 20)
	edges := make([]Edge, 40)
	for i := range edges {
		edges[i] = Edge{Src: 6, Dst: int64(200 + i), Type: 1, Timestamp: int64(1000 + 7*i), Props: map[string]string{"weight": "12"}}
	}
	flat, cols, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	first := int(cols.Props.Get(0))
	for _, cut := range []int{1, first, (first + len(flat)) / 2, len(flat) - 1} {
		sources := map[string]ByteSource{
			"raw":        NewRawSource(flat[:cut]),
			"compressed": edgeStore(flat[:cut], schema, 0),
			"α=8":        edgeStore(flat[:cut], schema, 8),
		}
		for kind, src := range sources {
			v := NewEdgeFileView(src, schema, cols, nil)
			ref, ok := v.GetEdgeRecord(6, 1)
			if !ok || ref.Count != len(edges) {
				t.Fatalf("%s cut at %d: record %+v, %v", kind, cut, ref, ok)
			}
			where := fmt.Sprintf("%s source cut at %d", kind, cut)
			if got, err := v.GetEdgeDataRange(&ref, 0, len(edges)); err == nil {
				t.Errorf("%s: GetEdgeDataRange returned %d edges and no error", where, len(got))
			}
			if _, err := v.GetEdgeData(&ref, len(edges)-1); err == nil {
				t.Errorf("%s: GetEdgeData(last) returned no error", where)
			}
			if beg, end := v.TimeRange(&ref, 1100, 1200); beg != 15 || end != 29 {
				t.Errorf("%s: TimeRange = [%d,%d)", where, beg, end)
			}
		}
	}
}
