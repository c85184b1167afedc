package layout

import "fmt"

// GetEdgeDataRange returns GetEdgeData(ref, i) for every TimeOrder i in
// [beg, end) — §2.2's get_edge_data loop of Algorithms 1–3 — reading the
// text once, from the interval's first property list to the end of its
// last: the lists of consecutive edges are contiguous, and every other
// field is a column entry. An empty interval is nil.
func (v *EdgeFileView) GetEdgeDataRange(ref *EdgeRecordRef, beg, end int) ([]EdgeData, error) {
	if beg >= end {
		return nil, nil
	}
	if beg < 0 || end > ref.Count {
		return nil, fmt.Errorf("layout: time orders [%d,%d) out of range [0,%d)", beg, end, ref.Count)
	}
	stop := v.recordEnd(ref.rec)
	if end < ref.Count {
		stop = int(v.cols.Props.Get(ref.first + end))
	}
	out := make([]EdgeData, end-beg)
	return out, v.readEdges(out, ref.first+beg, stop)
}

// ReadRecords returns records [lo, hi) whole, in file order: each one's
// handle and its edges' data, the text of them all read at once. The
// compactor reads a shard this way.
func (v *EdgeFileView) ReadRecords(lo, hi int) ([]EdgeRecordRef, [][]EdgeData, error) {
	if lo >= hi {
		return nil, nil, nil
	}
	refs := make([]EdgeRecordRef, hi-lo)
	data := make([][]EdgeData, hi-lo)
	first := int(v.cols.Starts.Get(lo))
	all := make([]EdgeData, int(v.cols.Starts.Get(hi))-first)
	for r := lo; r < hi; r++ {
		refs[r-lo] = v.record(r)
		k := refs[r-lo].first - first
		data[r-lo] = all[k : k+refs[r-lo].Count : k+refs[r-lo].Count]
	}
	return refs, data, v.readEdges(all, first, v.recordEnd(hi-1))
}

// readEdges fills out with the data of the edges from g on, whose
// property lists end at text offset stop.
func (v *EdgeFileView) readEdges(out []EdgeData, g, stop int) error {
	v.charge(colTs, g, v.cols.Ts.Len())
	v.charge(colDsts, g, v.cols.Dsts.Len())
	v.charge(colProps, g, v.cols.Props.Len())
	sc := getScratch()
	defer putScratch(sc)
	ends := sc.lengths(len(out)) // where each edge's list ends
	for i := range out {
		out[i] = EdgeData{Dst: NodeID(v.cols.Dsts.Get(g + i)), Timestamp: v.cols.TsMin + int64(v.cols.Ts.Get(g+i))}
		if i > 0 {
			ends[i-1] = int(v.cols.Props.Get(g + i))
		}
	}
	ends[len(out)-1] = stop
	start := int(v.cols.Props.Get(g))
	if stop < start {
		return fmt.Errorf("layout: edge %d's property lists end at %d, before they start at %d", g, stop, start)
	}
	// None is shorter than the empty list — the delimiters and the end
	// marker — so an interval whose lists add up to only that holds no
	// property at all: there is nothing to learn from reading it. Read
	// lists split at their delimiters (ParseProps).
	if stop-start <= len(out)*v.schema.PropsEncodedSize(nil) {
		for i := range out {
			out[i].Props = map[string]string{} // what ParseProps makes of an empty list
		}
		return nil
	}
	// On an anchored store the read starts on list g's anchor and steps
	// each later list as a chain of its own.
	sc.buf = readSpan(v.src, sc.buf[:0], g, start, stop-start, ends[:len(out)-1])
	if len(sc.buf) < stop-start {
		return fmt.Errorf("layout: short read at offset %d: %d of %d bytes", start, len(sc.buf), stop-start)
	}
	cur := start
	for i := range out {
		if ends[i] < cur {
			return fmt.Errorf("layout: edge %d's property list ends at %d, before it starts at %d", g+i, ends[i], cur)
		}
		props, _, err := v.schema.ParseProps(sc.buf[cur-start : ends[i]-start])
		if err != nil {
			return fmt.Errorf("layout: edge %d props: %w", g+i, err)
		}
		out[i].Props = props
		cur = ends[i]
	}
	return nil
}
