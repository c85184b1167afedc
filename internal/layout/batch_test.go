package layout

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"zipg/internal/succinct"
	"zipg/internal/telemetry"
)

// Differential tests for the range readers: a batch or range accessor
// must return byte-identical results to a scalar loop over the same
// requests, on raw and compressed sources, at several sampling rates.

// edgeViewsAlpha builds raw and compressed views of edges and their
// record index.
func edgeViewsAlpha(t testing.TB, edges []Edge, schema *PropertySchema, alpha int) (raw, comp *EdgeFileView, index []EdgeRecordIndex) {
	t.Helper()
	flat, index, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	raw = NewEdgeFileView(NewRawSource(flat), schema)
	st := succinct.Build(flat, succinct.Options{SamplingRate: alpha})
	comp = NewEdgeFileView(st, schema)
	return raw, comp, index
}

func TestGetEdgeRangeBatchAgainstScalar(t *testing.T) {
	edges, schema := buildEdges(400)
	rng := rand.New(rand.NewSource(11))
	for _, alpha := range []int{4, 8, 32} {
		raw, comp, index := edgeViewsAlpha(t, edges, schema, alpha)
		for _, v := range []*EdgeFileView{raw, comp} {
			for trial := 0; trial < 10; trial++ {
				n := rng.Intn(40)
				reqs := make([]EdgeRangeReq, n)
				for i := range reqs {
					rec := index[rng.Intn(len(index))]
					reqs[i] = EdgeRangeReq{
						Src: rec.Src, Type: rec.Type, Offset: rec.Offset,
						Idx:   rng.Intn(12) - 2, // negative indices too
						Limit: rng.Intn(20),
					}
					if rng.Intn(8) == 0 && i > 0 {
						reqs[i] = reqs[rng.Intn(i)] // duplicate
					}
				}
				got, err := v.GetEdgeRangeBatch(reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, req := range reqs {
					want := scalarEdgeRange(t, v, req)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("α=%d req %+v: got %v want %v", alpha, req, got[i], want)
					}
				}
			}
		}
	}
}

// scalarEdgeRange is the reference loop the batch reader must agree
// with: parse the record, read [max(Idx,0), min(Idx+Limit, count)).
func scalarEdgeRange(t *testing.T, v *EdgeFileView, req EdgeRangeReq) []EdgeData {
	t.Helper()
	ref, ok := v.GetEdgeRecordAt(req.Offset, req.Src, req.Type)
	if !ok {
		t.Fatalf("record (%d,%d) at %d missing", req.Src, req.Type, req.Offset)
	}
	end := req.Idx + req.Limit
	if end > ref.Count {
		end = ref.Count
	}
	var out []EdgeData
	for i := req.Idx; i < end; i++ {
		if i < 0 {
			continue
		}
		d, err := v.GetEdgeData(&ref, i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// TestGetEdgeDataRangeAgainstLoop: GetEdgeDataRange(ref, b, e) is the
// GetEdgeData(ref, i) loop over [b, e) — over raw and compressed sources,
// α ∈ {4, 8, 32}, and every state the ref's caches
// can be in when the range arrives — and leaves both caches holding the
// record's first e entries at least (TestEdgeRefPrefixCaches has the rest
// of that contract).
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
	warm := map[string]func(v *EdgeFileView, ref *EdgeRecordRef){
		"cold":     func(*EdgeFileView, *EdgeRecordRef) {},
		"ts":       func(v *EdgeFileView, ref *EdgeRecordRef) { v.Timestamps(ref) },
		"propEnds": func(v *EdgeFileView, ref *EdgeRecordRef) { v.RecordEnd(ref) },
		"both":     func(v *EdgeFileView, ref *EdgeRecordRef) { v.Timestamps(ref); v.RecordEnd(ref) },
	}
	for _, alpha := range []int{4, 8, 32} {
		raw, comp, index := edgeViewsAlpha(t, edges, schema, alpha)
		for _, rec := range index {
			// The reference: one edge at a time off the raw bytes.
			rref, _ := raw.GetEdgeRecordAt(rec.Offset, rec.Src, rec.Type)
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
			for state, warmUp := range warm {
				for _, v := range []*EdgeFileView{raw, comp} {
					b := rng.Intn(n + 1)
					for _, r := range [][2]int{{0, n}, {b, b + rng.Intn(n-b+1)}, {n - 1, n}} {
						ref, ok := v.GetEdgeRecordAt(rec.Offset, rec.Src, rec.Type)
						if !ok {
							t.Fatalf("record (%d,%d) missing", rec.Src, rec.Type)
						}
						warmUp(v, &ref)
						got, err := v.GetEdgeDataRange(&ref, r[0], r[1])
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != r[1]-r[0] || (len(got) > 0 && !reflect.DeepEqual(got, want[r[0]:r[1]])) {
							t.Fatalf("α=%d (%d,%d) %s [%d,%d): got %v want %v",
								alpha, rec.Src, rec.Type, state, r[0], r[1], got, want[r[0]:r[1]])
						}
						if r[0] < r[1] && (len(ref.ts) < r[1] || len(ref.propEnds) < r[1]) {
							t.Fatalf("%s: [%d,%d) left the caches at %d timestamps, %d length sums",
								state, r[0], r[1], len(ref.ts), len(ref.propEnds))
						}
					}
				}
			}
		}
	}
	if !sawBare {
		t.Error("no record without properties was read")
	}
	// Intervals: empty and inverted are nil, out of range is an error.
	_, comp, index := edgeViewsAlpha(t, edges, schema, 8)
	ref, _ := comp.GetEdgeRecordAt(index[0].Offset, index[0].Src, index[0].Type)
	n := ref.Count
	// A ref the range read has warmed answers the timestamp accessors
	// from its caches: no extract, so no allocation.
	if _, err := comp.GetEdgeDataRange(&ref, 0, 1); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		comp.Timestamp(&ref, 0)
		comp.TimeRange(&ref, 10, 50000)
	}); allocs != 0 {
		t.Errorf("Timestamp/TimeRange on a warmed ref allocated %v per run, want 0", allocs)
	}
	// The record without properties: on a warmed ref a range read is the
	// anchor walk to its first destination and the destinations, and it
	// stops there — the property area is empty, so it is not sought.
	for _, rec := range index {
		if rec.Src != 3 || rec.Type != 1 {
			continue
		}
		bare, _ := comp.GetEdgeRecordAt(rec.Offset, rec.Src, rec.Type)
		comp.Timestamps(&bare)
		comp.RecordEnd(&bare)
		prev := telemetry.SetEnabled(true)
		before := telemetry.TakeSnapshot()
		got, err := comp.GetEdgeDataRange(&bare, 1, bare.Count)
		steps := telemetry.Delta(before, telemetry.TakeSnapshot())["zipg_succinct_psi_steps_total"]
		telemetry.SetEnabled(prev)
		from := bare.dstOff + bare.DLen
		if want := from%8 + (bare.Count-1)*bare.DLen; err != nil || len(got) != bare.Count-1 || int(steps) != want {
			t.Errorf("property-less record: %d edges, %v, in %v psi steps; want %d in %d (anchor at %d, α=8, and %d bytes)",
				len(got), err, steps, bare.Count-1, want, from, (bare.Count-1)*bare.DLen)
		}
	}
	for _, r := range [][2]int{{0, 0}, {n, n}, {n, 0}, {-3, -1}, {n + 1, n + 4}, {-1, n}, {0, n + 1}} {
		got, err := comp.GetEdgeDataRange(&ref, r[0], r[1])
		wantErr := r[0] < r[1] && (r[0] < 0 || r[1] > n)
		if (err != nil) != wantErr || got != nil {
			t.Errorf("GetEdgeDataRange(%d,%d) of %d = %v, %v; want error %v", r[0], r[1], n, got, err, wantErr)
		}
	}
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

// TestEdgeRefPrefixCaches is the contract of the ref's two caches. After
// a read of [b, e) the ref answers Timestamp(i), i < e, without touching
// the source, and a wider read extends the caches by what they lack: it
// reads no array byte a second time. Nor does an edge-by-edge loop over a
// whole record, which extends them a chunk at a time: every byte of the
// timestamp and property-length arrays exactly once, in far fewer reads
// than edges. And a short read of a long record leaves the arrays' tails
// unread.
func TestEdgeRefPrefixCaches(t *testing.T) {
	schema := mustSchema(t, []string{"weight"}, 20)
	const n = 100
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: 4, Dst: int64(1000 + i), Type: 2, Timestamp: int64(50 + 3*i), Props: map[string]string{"weight": "7"}}
	}
	flat, index, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	open := func() (*EdgeFileView, *touchSource, *EdgeRecordRef) {
		src := &touchSource{RawSource: NewRawSource(flat), hits: make([]int, len(flat))}
		v := NewEdgeFileView(src, schema)
		ref, ok := v.GetEdgeRecordAt(index[0].Offset, 4, 2)
		if !ok || ref.Count != n {
			t.Fatalf("record: %+v, %v", ref, ok)
		}
		return v, src, &ref
	}
	// arrays calls check on every byte of the two cached arrays.
	arrays := func(ref *EdgeRecordRef, src *touchSource, check func(what string, i, hits int)) {
		for off := ref.tsOff; off < ref.dstOff; off++ {
			check("timestamp", (off-ref.tsOff)/ref.TLen, src.hits[off])
		}
		for off := ref.pLenOff; off < ref.propOff; off++ {
			check("property length", (off-ref.pLenOff)/ref.PLenW, src.hits[off])
		}
	}

	v, src, ref := open()
	for _, r := range [][2]int{{2, 9}, {0, 5}, {7, 40}, {30, 31}, {0, n}} {
		if _, err := v.GetEdgeDataRange(ref, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
		reads := src.reads
		for i := 0; i < r[1]; i++ {
			if ts, err := v.Timestamp(ref, i); err != nil || ts != edges[i].Timestamp {
				t.Fatalf("after [%d,%d): Timestamp(%d) = %d, %v; want %d", r[0], r[1], i, ts, err, edges[i].Timestamp)
			}
		}
		if src.reads != reads {
			t.Fatalf("after [%d,%d): Timestamp(i), i < %d, read the source %d times", r[0], r[1], r[1], src.reads-reads)
		}
		arrays(ref, src, func(what string, i, hits int) {
			if hits > 1 || (i < r[1] && hits == 0) {
				t.Fatalf("after [%d,%d): %s %d was read %d times", r[0], r[1], what, i, hits)
			}
		})
	}

	v, src, ref = open()
	if _, err := v.GetEdgeDataRange(ref, 3, 20); err != nil {
		t.Fatal(err)
	}
	arrays(ref, src, func(what string, i, hits int) {
		if want := i < 20; (hits == 1) != want {
			t.Fatalf("[3,20) of %d edges read %s %d %d times", n, what, i, hits)
		}
	})

	v, src, ref = open()
	for i := 0; i < n; i++ {
		d, err := v.GetEdgeData(ref, i)
		if err != nil || d.Dst != edges[i].Dst || d.Timestamp != edges[i].Timestamp {
			t.Fatalf("GetEdgeData(%d) = %+v, %v", i, d, err)
		}
	}
	arrays(ref, src, func(what string, i, hits int) {
		if hits != 1 {
			t.Fatalf("the edge-by-edge loop read %s %d %d times", what, i, hits)
		}
	})
	// Two reads of the header; per edge one of the destination and one of
	// the property list; per chunk one more of each array.
	if most := 2 + 2*n + 2*((n+prefixChunk-1)/prefixChunk); src.reads > most {
		t.Errorf("the edge-by-edge loop over %d edges made %d reads, want at most %d", n, src.reads, most)
	}
}

// TestEdgeRecordCutShort: a source that ends inside any of a record's
// four field arrays — what a hostile or damaged archive amounts to — is an
// error from every read that needs the missing bytes, over raw and
// compressed sources, and a panic from none.
func TestEdgeRecordCutShort(t *testing.T) {
	schema := mustSchema(t, []string{"weight"}, 20)
	edges := make([]Edge, 40)
	for i := range edges {
		edges[i] = Edge{Src: 6, Dst: int64(200 + i), Type: 1, Timestamp: int64(1000 + 7*i), Props: map[string]string{"weight": "12"}}
	}
	flat, index, err := BuildEdgeFile(edges, schema)
	if err != nil {
		t.Fatal(err)
	}
	whole, ok := NewEdgeFileView(NewRawSource(flat), schema).GetEdgeRecordAt(index[0].Offset, 6, 1)
	if !ok {
		t.Fatal("record missing")
	}
	arrays := []struct {
		name     string
		off, end int
	}{
		{"timestamps", whole.tsOff, whole.dstOff},
		{"destinations", whole.dstOff, whole.pLenOff},
		{"property lengths", whole.pLenOff, whole.propOff},
		{"property lists", whole.propOff, len(flat)},
	}
	for ai, a := range arrays {
		for _, cut := range []int{a.off, (a.off + a.end) / 2, a.end - 1} {
			sources := map[string]ByteSource{
				"raw":        NewRawSource(flat[:cut]),
				"compressed": succinct.Build(flat[:cut], succinct.Options{SamplingRate: 8}),
			}
			for kind, src := range sources {
				v := NewEdgeFileView(src, schema)
				open := func() *EdgeRecordRef {
					ref, ok := v.GetEdgeRecordAt(index[0].Offset, 6, 1)
					if !ok || ref.Count != len(edges) {
						t.Fatalf("%s cut at %d: header did not parse", kind, cut)
					}
					return &ref
				}
				where := fmt.Sprintf("%s source cut at %d, in the %s", kind, cut, a.name)
				if got, err := v.GetEdgeDataRange(open(), 0, len(edges)); err == nil {
					t.Errorf("%s: GetEdgeDataRange returned %d edges and no error", where, len(got))
				}
				if _, err := v.GetEdgeData(open(), len(edges)-1); err == nil {
					t.Errorf("%s: GetEdgeData(last) returned no error", where)
				}
				ts, err := v.Timestamps(open())
				if (err != nil) != (ai == 0) || (err == nil && len(ts) != len(edges)) {
					t.Errorf("%s: Timestamps = %d of %d, %v", where, len(ts), len(edges), err)
				}
				// A window the header's span cannot answer.
				beg, end, err := v.TimeRange(open(), 1100, 1200)
				if (err != nil) != (ai == 0) || (err == nil && (beg != 15 || end != 29)) {
					t.Errorf("%s: TimeRange = [%d,%d), %v", where, beg, end, err)
				}
			}
		}
	}
}
