package layout

import "fmt"

// EdgeRangeReq asks for the edges [Idx, Idx+Limit) in time order from the
// record starting at Offset (known from the build index) for (Src, Type).
type EdgeRangeReq struct {
	Src    NodeID
	Type   EdgeType
	Offset int64
	Idx    int
	Limit  int
}

// GetEdgeRangeBatch reads every requested record slice through one walk
// that seeks from each record to the next, so requests in file order —
// the compactor's, which reads a shard's records whole, one after the
// other — step on from record to record instead of anchoring at each.
// Results are positional and match what a scalar loop of GetEdgeRecordAt
// + GetEdgeData over [Idx, min(Idx+Limit, Count)) would produce (negative
// indices skipped, like TAO assoc_range). The first decode error aborts,
// mirroring the scalar loop.
func (v *EdgeFileView) GetEdgeRangeBatch(reqs []EdgeRangeReq) ([][]EdgeData, error) {
	out := make([][]EdgeData, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}
	sc := getScratch()
	defer putScratch(sc)
	w := newRecWalk(v.src, int(reqs[0].Offset))
	for i, req := range reqs {
		w.seek(int(req.Offset))
		data, err := v.rangeFromWalk(&w, req, sc)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// rangeFromWalk decodes one record slice with a single front-to-back
// walk from w at the record's start: the header, then the fields
// rangeBody reads.
func (v *EdgeFileView) rangeFromWalk(w *recWalk, req EdgeRangeReq, sc *recScratch) ([]EdgeData, error) {
	keyLen := recordKeyLen(req.Src, req.Type)
	w.skip(keyLen)
	var hdr [hotFixedWidth + 3*9]byte
	ref, ok := v.parseRecordWalk(w, req.Offset, keyLen, req.Src, req.Type, hdr[:0])
	if !ok {
		return nil, fmt.Errorf("layout: bad edge record at %d for (%d,%d)", req.Offset, req.Src, req.Type)
	}
	beg := max(req.Idx, 0) // scalar loops skip i < 0
	end := min(req.Idx+req.Limit, ref.Count)
	if beg >= end {
		return nil, nil
	}
	return v.rangeBody(w, &ref, beg, end, sc)
}

// GetEdgeDataRange returns GetEdgeData(ref, i) for every TimeOrder i in
// [beg, end) — §2.2's get_edge_data loop of Algorithms 1–3 — in one record
// walk instead of one per edge, over what the interval needs and no more:
// the timestamps and property lengths up to end that the ref has not
// cached yet (both are cached on the way), the destinations of the
// interval, and its property lists, which are contiguous. An empty
// interval is nil.
func (v *EdgeFileView) GetEdgeDataRange(ref *EdgeRecordRef, beg, end int) ([]EdgeData, error) {
	if beg >= end {
		return nil, nil
	}
	if beg < 0 || end > ref.Count {
		return nil, fmt.Errorf("layout: time orders [%d,%d) out of range [0,%d)", beg, end, ref.Count)
	}
	sc := getScratch()
	defer putScratch(sc)
	return v.rangeBody(&ref.cur, ref, beg, end, sc)
}

// rangeBody reads edges [beg, end) of ref, 0 <= beg < end <= Count,
// through w. Fields are visited in file order and the gaps between them
// skipped, so the walker decides per gap between stepping on and
// re-anchoring.
func (v *EdgeFileView) rangeBody(w *recWalk, ref *EdgeRecordRef, beg, end int, sc *recScratch) ([]EdgeData, error) {
	if err := ref.extend(w, sc, false, end); err != nil {
		return nil, err
	}
	out := make([]EdgeData, end-beg)
	dsts, err := w.readAt(sc.buf, ref.dstOff+beg*ref.DLen, len(out)*ref.DLen)
	sc.buf = dsts
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = EdgeData{Dst: NodeID(DecodeFixed(dsts[i*ref.DLen : (i+1)*ref.DLen])), Timestamp: ref.ts[beg+i]}
	}
	if err := ref.extend(w, sc, true, end); err != nil {
		return nil, err
	}
	ends := ref.propEnds
	start := 0
	if beg > 0 {
		start = ends[beg-1]
	}
	// The interval's property lists are contiguous. None is shorter than
	// the empty list — the length header, the delimiters and the end
	// marker — so an interval whose lists add up to only that holds no
	// property at all: there is nothing to learn from reading it, and
	// seeking it would cost a Skip (half of α Ψ steps, or an ISA anchor)
	// before the walk over it.
	var payload []byte
	if ends[end-1]-start > len(out)*v.schema.PropsEncodedSize(nil) {
		if payload, err = w.readAt(sc.buf, ref.propOff+start, ends[end-1]-start); err != nil {
			return nil, err
		}
		sc.buf = payload
	}
	cur := start
	for i := range out {
		bend := ends[beg+i]
		if bend > cur && payload == nil {
			out[i].Props = map[string]string{} // what ParseProps makes of an empty list
		} else if bend > cur {
			props, _, err := v.schema.ParseProps(payload[cur-start : bend-start])
			if err != nil {
				return nil, fmt.Errorf("layout: edge %d/%d props: %w", ref.Src, beg+i, err)
			}
			out[i].Props = props
		}
		cur = bend
	}
	return out, nil
}
