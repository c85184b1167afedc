package layout

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"zipg/internal/bitutil"
)

// Edge is one directed edge with its optional timestamp and property
// list (§2.1: a 3-tuple of sourceID, destinationID, EdgeType, plus
// Timestamp and PropertyList).
type Edge struct {
	Src       NodeID
	Dst       NodeID
	Type      EdgeType
	Timestamp int64
	Props     map[string]string
}

// EdgeFile metadata field widths (Figure 2). EdgeCount is globally
// fixed-width; TLength/DLength/PLenWidth are per-record single digits
// that record the per-record fixed widths chosen for timestamps,
// destination IDs and property-list lengths — the paper's middle ground
// between variable-length and globally fixed-length encodings.
const edgeCountWidth = 6

// An EdgeFile record is Figure 2 behind a hot-field header that promotes
// the fields every TAO assoc_range / assoc_count / time-range query
// touches — edge count, edge type and the timestamp span — to
// fixed-offset slots right after the record key, so filters and range
// pruning read the header instead of decoding the record body. After the
// $src#etype, key come
//
//	ver(1) count(6) TLen(1) DLen(1) PLenW(1) ETW(1) etype(ETW) tsMin(TLen) tsMax(TLen)
//
// followed by Figure 2's timestamp/destination/propLength/property
// arrays. tsMin/tsMax reuse the record's TLen so the header grows by
// only 3+ETW+2·TLen digits per record, and the version digit makes a
// file in another layout fail parsing instead of being misread.
const (
	hotVersion    = 1
	hotFixedWidth = 1 + edgeCountWidth + 3 + 1 // ver + count + TLen/DLen/PLenW + ETW
)

// RecordKey returns the search key that starts the EdgeRecord for
// (src, etype): $src#etype, with $ and # being non-printable delimiters.
// The trailing ',' makes the key prefix-free (etype 5 never matches
// etype 52).
func RecordKey(src NodeID, etype EdgeType) []byte {
	buf := make([]byte, 0, 24)
	buf = append(buf, EdgeRecordStart)
	buf = strconv.AppendInt(buf, src, 10)
	buf = append(buf, EdgeTypeSep)
	buf = strconv.AppendInt(buf, int64(etype), 10)
	buf = append(buf, ',')
	return buf
}

// NodeKeyPrefix returns the prefix matching every EdgeRecord of src
// regardless of type (used for wildcard-EdgeType queries).
func NodeKeyPrefix(src NodeID) []byte {
	buf := make([]byte, 0, 16)
	buf = append(buf, EdgeRecordStart)
	buf = strconv.AppendInt(buf, src, 10)
	buf = append(buf, EdgeTypeSep)
	return buf
}

// EdgeRecordIndex locates one EdgeRecord in a built EdgeFile: its key
// and start offset. The index is what lets search hits inside edge
// property lists be mapped back to their (source, type) record — the
// extension §3.3 sketches ("ZipG currently does not support search on
// edge propertyLists, but can be trivially extended to do so using ideas
// similar to NodeFile").
type EdgeRecordIndex struct {
	Src    NodeID
	Type   EdgeType
	Offset int64
}

// BuildEdgeFile serializes edges into the EdgeFile layout: one record
// per (src, etype) holding metadata, sorted timestamps, destination IDs
// and property lists, the latter two ordered to match the timestamps.
// Records appear in (src, etype) order. The returned index lists every
// record's key and start offset, in file order.
func BuildEdgeFile(edges []Edge, schema *PropertySchema) ([]byte, []EdgeRecordIndex, error) {
	type key struct {
		src   NodeID
		etype EdgeType
	}
	groups := make(map[key][]Edge)
	// The widest value of each field, and the property bytes in all,
	// bound the file's size from above.
	var widest Edge
	propBytes, widestProps := 0, 0
	for _, e := range edges {
		if e.Src < 0 || e.Dst < 0 || e.Type < 0 || e.Timestamp < 0 {
			return nil, nil, fmt.Errorf("layout: negative ID/type/timestamp in edge %+v", e)
		}
		k := key{e.Src, e.Type}
		groups[k] = append(groups[k], e)
		widest.Src, widest.Dst = max(widest.Src, e.Src), max(widest.Dst, e.Dst)
		widest.Type, widest.Timestamp = max(widest.Type, e.Type), max(widest.Timestamp, e.Timestamp)
		n := schema.PropsEncodedSize(e.Props)
		propBytes += n
		widestProps = max(widestProps, n)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].etype < keys[j].etype
	})
	tLen, dLen := FixedWidth(uint64(widest.Timestamp)), FixedWidth(uint64(widest.Dst))
	perRecord := len(RecordKey(widest.Src, widest.Type)) + hotFixedWidth + FixedWidth(uint64(widest.Type)) + 2*tLen
	perEdge := tLen + dLen + FixedWidth(uint64(widestProps))
	flat := make([]byte, 0, len(keys)*perRecord+len(edges)*perEdge+propBytes)
	index := make([]EdgeRecordIndex, 0, len(keys))
	for _, k := range keys {
		index = append(index, EdgeRecordIndex{Src: k.src, Type: k.etype, Offset: int64(len(flat))})
		var err error
		if flat, err = appendEdgeRecord(flat, k.src, k.etype, groups[k], schema); err != nil {
			return nil, nil, err
		}
	}
	return flat, index, nil
}

// appendEdgeRecord serializes one EdgeRecord.
func appendEdgeRecord(flat []byte, src NodeID, etype EdgeType, group []Edge, schema *PropertySchema) ([]byte, error) {
	sort.SliceStable(group, func(i, j int) bool { return group[i].Timestamp < group[j].Timestamp })

	// Per-record fixed widths (TLength/DLength in Figure 2).
	tLen, dLen := 1, 1
	for _, e := range group {
		if w := FixedWidth(uint64(e.Timestamp)); w > tLen {
			tLen = w
		}
		if w := FixedWidth(uint64(e.Dst)); w > dLen {
			dLen = w
		}
	}
	// The property lists' sizes fix the width of their length fields.
	pLenW := 1
	for _, e := range group {
		if w := FixedWidth(uint64(schema.PropsEncodedSize(e.Props))); w > pLenW {
			pLenW = w
		}
	}
	if tLen > 9 || dLen > 9 || pLenW > 9 {
		return nil, fmt.Errorf("layout: field width exceeds one digit (tLen=%d dLen=%d pLenW=%d)", tLen, dLen, pLenW)
	}

	flat = append(flat, RecordKey(src, etype)...)
	etw := FixedWidth(uint64(etype))
	if etw > 9 {
		return nil, fmt.Errorf("layout: edge type %d too wide for hot header", etype)
	}
	flat = AppendFixed(flat, hotVersion, 1)
	flat = AppendFixed(flat, uint64(len(group)), edgeCountWidth)
	flat = AppendFixed(flat, uint64(tLen), 1)
	flat = AppendFixed(flat, uint64(dLen), 1)
	flat = AppendFixed(flat, uint64(pLenW), 1)
	flat = AppendFixed(flat, uint64(etw), 1)
	flat = AppendFixed(flat, uint64(etype), etw)
	// group is timestamp-sorted, so the span is the two ends.
	flat = AppendFixed(flat, uint64(group[0].Timestamp), tLen)
	flat = AppendFixed(flat, uint64(group[len(group)-1].Timestamp), tLen)
	for _, e := range group {
		flat = AppendFixed(flat, uint64(e.Timestamp), tLen)
	}
	for _, e := range group {
		flat = AppendFixed(flat, uint64(e.Dst), dLen)
	}
	for _, e := range group {
		flat = AppendFixed(flat, uint64(schema.PropsEncodedSize(e.Props)), pLenW)
	}
	for _, e := range group {
		var err error
		if flat, err = schema.SerializeProps(flat, e.Props); err != nil {
			return nil, fmt.Errorf("layout: edge %d->%d: %w", e.Src, e.Dst, err)
		}
	}
	return flat, nil
}

// EdgeRecordRef is a parsed handle to one EdgeRecord inside an EdgeFile:
// it caches the metadata so that edge data lookups are pure random
// accesses (§2.2's EdgeRecord). Accessors take the ref by pointer so a
// read of the timestamps or the property lengths can leave what it
// decoded on the ref — later lookups against the same handle that stay
// inside it are pure in-memory reads instead of repeated extracts.
type EdgeRecordRef struct {
	Src    NodeID
	Type   EdgeType
	Offset int64 // of the record's start ($) in the file
	Count  int
	TLen   int
	DLen   int
	PLenW  int

	// TsMin/TsMax are the record's timestamp span, read from the
	// hot-field header; TimeRange uses them to answer fully-covering and
	// fully-disjoint queries without touching the timestamp array.
	TsMin int64
	TsMax int64

	tsOff   int // absolute file offset of the timestamp array
	dstOff  int
	pLenOff int
	propOff int

	// Prefix caches: the first len() entries of the timestamp array and
	// of the running sums of the property-list lengths (entry i is the
	// total length of lists 0..i). A read decodes as far as the TimeOrders
	// it serves and a later, wider one extends the prefix (see extend).
	ts       []int64
	propEnds []int

	// cur is the walk that parsed the header, left wherever the last read
	// through the ref ended: the first field read of a fresh ref continues
	// it instead of anchoring anew, so a record located and then read is
	// one front-to-back walk.
	cur recWalk
}

// prefixChunk is the least number of entries a prefix cache grows by
// (short of the record's end), so a caller that walks a record edge by
// edge pays for one extension per chunk of edges, not one per edge.
const prefixChunk = 16

// extend grows one of ref's prefix caches — the timestamps, or with lens
// the property-length sums — to cover TimeOrders [0, n), n <= Count,
// reading the entries it lacks through w. Every array byte is read at
// most once per ref.
func (ref *EdgeRecordRef) extend(w *recWalk, sc *recScratch, lens bool, n int) (err error) {
	if lens {
		ref.propEnds, err = extendPrefix(w, sc, ref.propEnds, ref.pLenOff, ref.PLenW, ref.Count, n, true)
	} else {
		ref.ts, err = extendPrefix(w, sc, ref.ts, ref.tsOff, ref.TLen, ref.Count, n, false)
	}
	return err
}

// extendPrefix appends entries [len(cache), n) of the count fixed-width
// values at off — rounded up by prefixChunk — to cache, each added to
// the one before it when running.
func extendPrefix[T int | int64](w *recWalk, sc *recScratch, cache []T, off, width, count, n int, running bool) ([]T, error) {
	k := len(cache)
	if k >= n {
		return cache, nil
	}
	n = max(n, min(count, k+prefixChunk))
	raw, err := w.readAt(sc.buf, off+k*width, (n-k)*width)
	sc.buf = raw
	cache = slices.Grow(cache, n-k)
	var sum T
	if running && k > 0 {
		sum = cache[k-1]
	}
	for i := 0; i+width <= len(raw); i += width { // a short read: the whole entries of it
		x := T(DecodeFixed(raw[i : i+width]))
		if running {
			sum += x
			x = sum
		}
		cache = append(cache, x)
	}
	return cache, err
}

// head extends a prefix cache on its own: one read of the missing entries.
func (v *EdgeFileView) head(ref *EdgeRecordRef, lens bool, n int) error {
	sc := getScratch()
	defer putScratch(sc)
	return ref.extend(&ref.cur, sc, lens, n)
}

// EdgeFileView executes edge queries over a serialized EdgeFile. As with
// NodeFileView it is agnostic to whether the source is compressed.
type EdgeFileView struct {
	src    ByteSource
	schema *PropertySchema
}

// NewEdgeFileView wraps a serialized EdgeFile.
func NewEdgeFileView(src ByteSource, schema *PropertySchema) *EdgeFileView {
	return &EdgeFileView{src: src, schema: schema}
}

// Schema returns the edge property schema.
func (v *EdgeFileView) Schema() *PropertySchema { return v.schema }

// recordKeyLen returns len(RecordKey(src, etype)) without building the
// key: the two delimiters and the comma plus the decimal digits.
func recordKeyLen(src NodeID, etype EdgeType) int {
	n := 3
	for v := src; ; v /= 10 {
		n++
		if v < 10 {
			break
		}
	}
	for v := int64(etype); ; v /= 10 {
		n++
		if v < 10 {
			break
		}
	}
	return n
}

// parseRecordAt parses the EdgeRecord whose key starts at off. keyLen is
// the length of the $src#etype, key.
func (v *EdgeFileView) parseRecordAt(off int64, keyLen int, src NodeID, etype EdgeType) (EdgeRecordRef, bool) {
	w := newRecWalk(v.src, int(off)+keyLen)
	var buf [hotFixedWidth + 3*9]byte
	ref, ok := v.parseRecordWalk(&w, off, keyLen, src, etype, buf[:0])
	ref.cur = w
	return ref, ok
}

// parseRecordWalk parses a record header with w positioned just past the
// record key (at off+keyLen), leaving w at the start of the timestamp
// array. buf is scratch for the header bytes.
func (v *EdgeFileView) parseRecordWalk(w *recWalk, off int64, keyLen int, src NodeID, etype EdgeType, buf []byte) (EdgeRecordRef, bool) {
	ref := EdgeRecordRef{Src: src, Type: etype, Offset: off}
	buf = w.appendN(buf[:0], hotFixedWidth)
	if len(buf) < hotFixedWidth || DecodeFixed(buf[:1]) != hotVersion {
		return EdgeRecordRef{}, false
	}
	ref.Count = int(DecodeFixed(buf[1 : 1+edgeCountWidth]))
	ref.TLen = int(DecodeFixed(buf[1+edgeCountWidth : 2+edgeCountWidth]))
	ref.DLen = int(DecodeFixed(buf[2+edgeCountWidth : 3+edgeCountWidth]))
	ref.PLenW = int(DecodeFixed(buf[3+edgeCountWidth : 4+edgeCountWidth]))
	etw := int(DecodeFixed(buf[4+edgeCountWidth : 5+edgeCountWidth]))
	varLen := etw + 2*ref.TLen
	buf = w.appendN(buf[:0], varLen)
	if len(buf) < varLen {
		return EdgeRecordRef{}, false
	}
	ref.TsMin = int64(DecodeFixed(buf[etw : etw+ref.TLen]))
	ref.TsMax = int64(DecodeFixed(buf[etw+ref.TLen:]))
	ref.tsOff = int(off) + keyLen + hotFixedWidth + varLen
	ref.dstOff = ref.tsOff + ref.Count*ref.TLen
	ref.pLenOff = ref.dstOff + ref.Count*ref.DLen
	ref.propOff = ref.pLenOff + ref.Count*ref.PLenW
	return ref, true
}

// GetEdgeRecordAt parses the record known to start at off for
// (src, etype) — callers holding the build index (core shards) use this
// to skip the compressed search GetEdgeRecord pays to locate the record.
func (v *EdgeFileView) GetEdgeRecordAt(off int64, src NodeID, etype EdgeType) (EdgeRecordRef, bool) {
	return v.parseRecordAt(off, recordKeyLen(src, etype), src, etype)
}

// GetEdgeRecord locates the EdgeRecord for (src, etype) via
// search($src#etype,) — §3.4. Returns false if the record does not
// exist in this file.
func (v *EdgeFileView) GetEdgeRecord(src NodeID, etype EdgeType) (EdgeRecordRef, bool) {
	key := RecordKey(src, etype)
	offs := v.src.Search(key)
	if len(offs) == 0 {
		return EdgeRecordRef{}, false
	}
	// The key is unique per file by construction.
	return v.parseRecordAt(offs[0], len(key), src, etype)
}

// GetEdgeRecords returns the EdgeRecords of every EdgeType incident on
// src present in this file (wildcard EdgeType).
func (v *EdgeFileView) GetEdgeRecords(src NodeID) []EdgeRecordRef {
	prefix := NodeKeyPrefix(src)
	offs := v.src.Search(prefix)
	refs := make([]EdgeRecordRef, 0, len(offs))
	for _, off := range offs {
		// Read the etype digits and the ',' terminator.
		tail := v.src.Extract(int(off)+len(prefix), 20)
		comma := -1
		for i, b := range tail {
			if b == ',' {
				comma = i
				break
			}
		}
		if comma < 0 {
			continue
		}
		etype, err := strconv.ParseInt(string(tail[:comma]), 10, 64)
		if err != nil {
			continue
		}
		if ref, ok := v.parseRecordAt(off, len(prefix)+comma+1, src, etype); ok {
			refs = append(refs, ref)
		}
	}
	return refs
}

// Timestamps returns the record's full (sorted) timestamp array,
// decoding what the ref has not cached of it in one extract.
func (v *EdgeFileView) Timestamps(ref *EdgeRecordRef) ([]int64, error) {
	if len(ref.ts) < ref.Count {
		if err := v.head(ref, false, ref.Count); err != nil {
			return nil, err
		}
	}
	return ref.ts, nil
}

// Timestamp returns the i-th (time-ordered) edge's timestamp, 0 <= i <
// Count. The first is in the header; any other extends the timestamp
// cache to it.
func (v *EdgeFileView) Timestamp(ref *EdgeRecordRef, i int) (int64, error) {
	if i == 0 {
		return ref.TsMin, nil
	}
	if i >= len(ref.ts) {
		if err := v.head(ref, false, i+1); err != nil {
			return 0, err
		}
	}
	return ref.ts[i], nil
}

// Destinations returns all destination IDs of the record in time order,
// in one extract (used by neighbor queries).
func (v *EdgeFileView) Destinations(ref *EdgeRecordRef) []NodeID {
	raw := v.src.Extract(ref.dstOff, ref.Count*ref.DLen)
	out := make([]NodeID, 0, ref.Count)
	for i := 0; i+ref.DLen <= len(raw); i += ref.DLen {
		out = append(out, NodeID(DecodeFixed(raw[i:i+ref.DLen])))
	}
	return out
}

// propEndSums returns prefix sums of the record's property-list lengths:
// entry i is the total length of lists 0..i. The length array is summed
// at most once per ref, making every later property lookup O(1). A
// length array cut short yields the sums of what is there.
func (v *EdgeFileView) propEndSums(ref *EdgeRecordRef) []int {
	if len(ref.propEnds) < ref.Count {
		_ = v.head(ref, true, ref.Count)
	}
	return ref.propEnds
}

// EdgeData is the triplet stored per edge (§2.2).
type EdgeData struct {
	Dst       NodeID
	Timestamp int64
	Props     map[string]string
}

// GetEdgeData returns the i-th edge's (destination, timestamp,
// property list) — §2.2's get_edge_data, with i being the TimeOrder: the
// one-edge case of GetEdgeDataRange. One record walk, from whichever of
// the timestamp and property-length caches does not reach i yet (either
// then grows by a chunk, so a loop over i extends them once per chunk) or
// else from the destination, to the property list.
func (v *EdgeFileView) GetEdgeData(ref *EdgeRecordRef, i int) (EdgeData, error) {
	out, err := v.GetEdgeDataRange(ref, i, i+1)
	if err != nil {
		return EdgeData{}, err
	}
	return out[0], nil
}

// TimeRange returns the half-open TimeOrder range [beg, end) of edges
// with timestamps in [tLo, tHi), via binary search over the sorted
// timestamp array (§3.3's motivation for sorted fixed-width timestamps).
// The header's timestamp span answers queries that fully cover or fully
// miss the record without decoding the array at all; otherwise the array
// is decoded (what the ref lacks of it, in one extract) and searched in
// memory. The short-circuits return exactly what the binary searches
// would.
func (v *EdgeFileView) TimeRange(ref *EdgeRecordRef, tLo, tHi int64) (int, int, error) {
	if ref.Count > 0 {
		switch {
		case tLo <= ref.TsMin && tHi > ref.TsMax:
			return 0, ref.Count, nil
		case tHi <= ref.TsMin && tLo <= ref.TsMin:
			return 0, 0, nil
		case tLo > ref.TsMax && tHi > ref.TsMax:
			return ref.Count, ref.Count, nil
		}
	}
	ts, err := v.Timestamps(ref)
	if err != nil {
		return 0, 0, err
	}
	return bitutil.SearchGE(ts, tLo), bitutil.SearchGE(ts, tHi), nil
}

// FindEdges returns the (record, TimeOrder) locations of edges whose
// property lists exactly match every (propertyID, value) pair — the edge
// counterpart of NodeFileView.FindNodes, realized exactly as §3.3
// sketches: each value is searched wrapped in its delimiters, hits are
// mapped to records via the record-offset index, and the TimeOrder is
// recovered from the hit's position inside the record's property area.
// index must be the file's record index (from BuildEdgeFile), in file
// order.
func (v *EdgeFileView) FindEdges(index []EdgeRecordIndex, props map[string]string) []EdgeMatch {
	if len(props) == 0 {
		return nil
	}
	starts := make([]int64, len(index))
	for i, r := range index {
		starts[i] = r.Offset
	}
	var result map[EdgeMatch]int
	// Hits cluster by record; share one parsed ref (and its cached
	// prefix sums) across all hits in the same record.
	recCache := make(map[int]*EdgeRecordRef)
	needed := 0
	for pid, val := range props {
		order := v.schema.Order(pid)
		if order < 0 {
			return nil
		}
		needed++
		pattern := append([]byte(nil), v.schema.Delimiter(order)...)
		pattern = append(pattern, val...)
		pattern = append(pattern, v.schema.NextDelimiter(order)...)
		for _, off := range v.src.Search(pattern) {
			ri := offsetToIndex(starts, off)
			if ri < 0 {
				continue
			}
			rec := recCache[ri]
			if rec == nil {
				r, ok := v.parseRecordAt(index[ri].Offset, len(RecordKey(index[ri].Src, index[ri].Type)), index[ri].Src, index[ri].Type)
				if !ok {
					continue
				}
				rec = &r
				recCache[ri] = rec
			}
			order, ok := v.timeOrderOfPropOffset(rec, off)
			if !ok {
				continue
			}
			m := EdgeMatch{Src: rec.Src, Type: rec.Type, TimeOrder: order}
			if result == nil {
				result = make(map[EdgeMatch]int)
			}
			result[m]++
		}
	}
	var out []EdgeMatch
	for m, hits := range result {
		if hits == needed { // conjunction across property pairs
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].TimeOrder < out[j].TimeOrder
	})
	return out
}

// EdgeMatch identifies one edge by its record and TimeOrder.
type EdgeMatch struct {
	Src       NodeID
	Type      EdgeType
	TimeOrder int
}

// timeOrderOfPropOffset maps a file offset inside a record's property
// area to the TimeOrder of the edge whose serialized property list
// contains it: the first prefix sum past the relative offset.
func (v *EdgeFileView) timeOrderOfPropOffset(ref *EdgeRecordRef, off int64) (int, bool) {
	rel := int(off) - ref.propOff
	if rel < 0 {
		return 0, false
	}
	ends := v.propEndSums(ref)
	i := bitutil.SearchGT(ends, rel)
	if i >= len(ends) {
		return 0, false
	}
	return i, true
}

// RecordEnd returns the file offset just past the record (useful for
// tests and compaction).
func (v *EdgeFileView) RecordEnd(ref *EdgeRecordRef) int64 {
	ends := v.propEndSums(ref)
	end := ref.propOff
	if len(ends) > 0 {
		end += ends[len(ends)-1]
	}
	return int64(end)
}
