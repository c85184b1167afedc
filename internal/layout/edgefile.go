package layout

import (
	"fmt"
	"sort"
	"strconv"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
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

// An EdgeFile is Figure 2 with the numbers and the record keys taken out
// of the text. The text keeps what Search looks for: per (src, etype)
// record, in (src, etype) order, its edges' header-free property lists
// in time order. Every number — the record's edge count, each edge's
// timestamp and destination, where each property list starts — is an
// entry of a per-file column (EdgeColumns), so reading one is an array
// access instead of a Ψ step per digit, and a record is found by a
// binary search of the key columns, not a search of the text.
//
// Each list begins with the schema's ListAnchor byte, and nothing else
// in the text is that byte, so the compressed store samples its SA and
// ISA there (succinct.BuildAnchored), where every read starts, and a
// search hit walks forward to the list after it to learn its edge.
//
// figure2Fixed is what Figure 2 adds to each record beyond its key, its
// TLength/DLength-wide fields and its property lists, as this layout
// wrote it while the numbers were text: a version digit, a 6-digit edge
// count, the three field widths, the edge type's width and the edge
// type. RawBytes still counts the records that way, so the footprint
// ratio keeps its denominator.
const figure2Fixed = 1 + 6 + 3 + 1

// RecordKey returns Figure 2's key for the EdgeRecord of (src, etype):
// $src#etype, with $ and # being non-printable delimiters and a
// trailing ',' that makes the key prefix-free (etype 5 never matches
// etype 52). The text does not hold it; RawBytes counts it.
func RecordKey(src NodeID, etype EdgeType) []byte {
	buf := make([]byte, 0, 24)
	buf = append(buf, EdgeRecordStart)
	buf = strconv.AppendInt(buf, src, 10)
	buf = append(buf, EdgeTypeSep)
	buf = strconv.AppendInt(buf, int64(etype), 10)
	buf = append(buf, ',')
	return buf
}

// EdgeColumns are an EdgeFile's numbers, one entry per record or per
// edge. Edges are numbered in file order: record by record, each
// record's in time order.
type EdgeColumns struct {
	// Srcs and Types key the records, ascending by (src, etype).
	Srcs  []NodeID
	Types []EdgeType
	// Starts holds each record's first edge, then the edge count: record
	// r's edges are [Starts[r], Starts[r+1]).
	Starts *bitutil.MonotoneVector
	// Props holds each edge's property-list offset in the text, then the
	// text's length.
	Props *bitutil.MonotoneVector
	// Ts holds each edge's timestamp less TsMin, the file's least.
	TsMin int64
	Ts    *bitutil.PackedVector
	// Dsts holds each edge's destination.
	Dsts *bitutil.PackedVector
	// RawBytes is the records' size in Figure 2's all-text layout: the
	// text plus the keys and the numbers at their per-record fixed
	// widths.
	RawBytes int
}

// SizeBytes is the columns' footprint, less the record keys (which, like
// the NodeFile's IDs, are the in-memory index the paper also keeps).
func (c *EdgeColumns) SizeBytes() int {
	return c.Starts.SizeBytes() + c.Props.SizeBytes() + c.Ts.SizeBytes() + c.Dsts.SizeBytes() + 8
}

// Check validates columns read from an untrusted archive against a text
// of textLen bytes, so that no accessor of a view over them can index
// out of range: the columns agree in length, the keys ascend, the record
// starts ascend strictly from 0 to the edge count, and the property
// offsets ascend strictly to the text's length. (Decoding has bounded
// every width by 64.)
func (c *EdgeColumns) Check(textLen int) error {
	records, edges := len(c.Srcs), c.Ts.Len()
	if len(c.Types) != records || c.Starts.Len() != records+1 || c.Props.Len() != edges+1 || c.Dsts.Len() != edges {
		return fmt.Errorf("layout: edge columns disagree in length (%d sources, %d types, %d starts, %d property offsets, %d timestamps, %d destinations)",
			records, len(c.Types), c.Starts.Len(), c.Props.Len(), edges, c.Dsts.Len())
	}
	for r := 1; r < records; r++ {
		if c.Srcs[r] < c.Srcs[r-1] || c.Srcs[r] == c.Srcs[r-1] && c.Types[r] <= c.Types[r-1] {
			return fmt.Errorf("layout: edge record keys out of order at record %d", r)
		}
	}
	if last, ok := ascending(c.Starts); !ok || c.Starts.Get(0) != 0 || last != uint64(edges) {
		return fmt.Errorf("layout: edge record starts do not ascend from 0 to the %d edges", edges)
	}
	if last, ok := ascending(c.Props); !ok || last != uint64(textLen) {
		return fmt.Errorf("layout: edge property offsets do not ascend to the %d-byte text's end", textLen)
	}
	return nil
}

// ascending reports whether mv, which has at least one element, strictly
// ascends, and returns its last element.
func ascending(mv *bitutil.MonotoneVector) (last uint64, ok bool) {
	ok = true
	mv.Each(func(i int, v uint64) bool {
		ok = i == 0 || v > last
		last = v
		return ok
	})
	return last, ok
}

// BuildEdgeFile serializes edges into the EdgeFile layout: one record per
// (src, etype), its edges sorted by timestamp (ties in input order), in
// (src, etype) order; the text holds the property lists, the columns the
// keys and the numbers.
func BuildEdgeFile(edges []Edge, schema *PropertySchema) ([]byte, *EdgeColumns, error) {
	type key struct {
		src   NodeID
		etype EdgeType
	}
	groups := make(map[key][]Edge)
	propBytes := 0
	var maxDst, maxTs int64
	tsMin := int64(-1)
	for _, e := range edges {
		if e.Src < 0 || e.Dst < 0 || e.Type < 0 || e.Timestamp < 0 {
			return nil, nil, fmt.Errorf("layout: negative ID/type/timestamp in edge %+v", e)
		}
		k := key{e.Src, e.Type}
		groups[k] = append(groups[k], e)
		maxDst, maxTs = max(maxDst, e.Dst), max(maxTs, e.Timestamp)
		if tsMin < 0 || e.Timestamp < tsMin {
			tsMin = e.Timestamp
		}
		propBytes += schema.PropsEncodedSize(e.Props)
	}
	tsMin = max(tsMin, 0)
	keys := make([]key, 0, len(groups))
	keyBytes := 0
	for k := range groups {
		keys = append(keys, k)
		keyBytes += recordKeyLen(k.src, k.etype)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].etype < keys[j].etype
	})
	c := &EdgeColumns{
		Srcs:  make([]NodeID, len(keys)),
		Types: make([]EdgeType, len(keys)),
		TsMin: tsMin,
		Ts:    bitutil.NewPackedVector(len(edges), bitutil.WidthFor(uint64(maxTs-tsMin))),
		Dsts:  bitutil.NewPackedVector(len(edges), bitutil.WidthFor(uint64(maxDst))),
	}
	starts := make([]int64, 0, len(keys)+1)
	props := make([]int64, 0, len(edges)+1)
	flat := make([]byte, 0, propBytes)
	for r, k := range keys {
		group := groups[k]
		sort.SliceStable(group, func(i, j int) bool { return group[i].Timestamp < group[j].Timestamp })
		c.Srcs[r], c.Types[r] = k.src, k.etype
		starts = append(starts, int64(len(props)))
		for _, e := range group {
			c.Ts.Set(len(props), uint64(e.Timestamp-tsMin))
			c.Dsts.Set(len(props), uint64(e.Dst))
			props = append(props, int64(len(flat)))
			var err error
			if flat, err = schema.SerializeProps(flat, e.Props); err != nil {
				return nil, nil, fmt.Errorf("layout: edge %d->%d: %w", e.Src, e.Dst, err)
			}
		}
		c.RawBytes += figure2Numbers(k.etype, group, schema)
	}
	c.Starts = bitutil.NewMonotoneVector(append(starts, int64(len(props))))
	c.Props = bitutil.NewMonotoneVector(append(props, int64(len(flat))))
	c.RawBytes += keyBytes + len(flat)
	return flat, c, nil
}

// figure2Numbers is the text Figure 2 spends on one timestamp-sorted
// record's numbers: the fixed fields, the timestamp span, and per edge a
// timestamp, a destination and a property-list length, each at the
// record's widest, and its list's Figure 1 length header.
func figure2Numbers(etype EdgeType, group []Edge, schema *PropertySchema) int {
	tLen, dLen, pLenW, hdr := 1, 1, 1, schema.Figure1Header()
	for _, e := range group {
		tLen = max(tLen, FixedWidth(uint64(e.Timestamp)))
		dLen = max(dLen, FixedWidth(uint64(e.Dst)))
		pLenW = max(pLenW, FixedWidth(uint64(hdr+schema.PropsEncodedSize(e.Props))))
	}
	return figure2Fixed + FixedWidth(uint64(etype)) + 2*tLen + len(group)*(tLen+dLen+pLenW+hdr)
}

// EdgeRecordRef is a handle to one EdgeRecord of an EdgeFile (§2.2's
// EdgeRecord): where its edges are in the columns.
type EdgeRecordRef struct {
	Src   NodeID
	Type  EdgeType
	Count int

	rec   int // record index
	first int // its first edge
}

// EdgeFileView executes edge queries over an EdgeFile: its text, over a
// compressed or a raw source, and its columns.
type EdgeFileView struct {
	src    ByteSource
	schema *PropertySchema
	cols   *EdgeColumns

	med    *memsim.Medium // nil outside budgeted experiments: no accounting
	reg    uint32         // region for the columns
	bounds [5]int64       // column c is bytes [bounds[c], bounds[c+1]) of it
}

// Column numbers in EdgeFileView.bounds.
const (
	colStarts = iota
	colProps
	colTs
	colDsts
)

// NewEdgeFileView wraps an EdgeFile's text and columns. The columns'
// footprint and touches are charged to med; nil means plain memory, with
// no access accounting at all.
func NewEdgeFileView(src ByteSource, schema *PropertySchema, cols *EdgeColumns, med *memsim.Medium) *EdgeFileView {
	v := &EdgeFileView{src: src, schema: schema, cols: cols, med: med}
	if med != nil {
		for c, n := range []int{cols.Starts.SizeBytes(), cols.Props.SizeBytes(), cols.Ts.SizeBytes(), cols.Dsts.SizeBytes()} {
			v.bounds[c+1] = v.bounds[c] + int64(n)
		}
		v.reg = med.Register(int64(cols.SizeBytes()))
	}
	return v
}

// charge bills one touch of column col at entry i of its n.
func (v *EdgeFileView) charge(col, i, n int) {
	if v.med != nil {
		lo, hi := v.bounds[col], v.bounds[col+1]
		v.med.Access(v.reg, lo+(hi-lo)*int64(i)/int64(max(n, 1)), 8)
	}
}

// Schema returns the edge property schema.
func (v *EdgeFileView) Schema() *PropertySchema { return v.schema }

// Columns returns the view's columns (for serialization and size
// reports).
func (v *EdgeFileView) Columns() *EdgeColumns { return v.cols }

// NumRecords returns the number of records in the file.
func (v *EdgeFileView) NumRecords() int { return len(v.cols.Srcs) }

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

// record returns the handle of record r.
func (v *EdgeFileView) record(r int) EdgeRecordRef {
	v.charge(colStarts, r, len(v.cols.Srcs))
	first := int(v.cols.Starts.Get(r))
	return EdgeRecordRef{Src: v.cols.Srcs[r], Type: v.cols.Types[r], Count: int(v.cols.Starts.Get(r+1)) - first, rec: r, first: first}
}

// firstRecordOf returns the least record index whose key is at or past
// (src, etype).
func (v *EdgeFileView) firstRecordOf(src NodeID, etype EdgeType) int {
	srcs, types := v.cols.Srcs, v.cols.Types
	lo, hi := 0, len(srcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if srcs[mid] < src || srcs[mid] == src && types[mid] < etype {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// GetEdgeRecord locates the EdgeRecord for (src, etype) — §3.4's
// get_edge_record — by binary search over the record keys, which reads
// nothing compressed. Returns false if the record does not exist in this
// file.
func (v *EdgeFileView) GetEdgeRecord(src NodeID, etype EdgeType) (EdgeRecordRef, bool) {
	r := v.firstRecordOf(src, etype)
	if r == len(v.cols.Srcs) || v.cols.Srcs[r] != src || v.cols.Types[r] != etype {
		return EdgeRecordRef{}, false
	}
	return v.record(r), true
}

// GetEdgeRecords returns the EdgeRecords of every EdgeType incident on
// src present in this file (wildcard EdgeType), in ascending type order.
func (v *EdgeFileView) GetEdgeRecords(src NodeID) []EdgeRecordRef {
	var refs []EdgeRecordRef
	for r := v.firstRecordOf(src, 0); r < len(v.cols.Srcs) && v.cols.Srcs[r] == src; r++ {
		refs = append(refs, v.record(r))
	}
	return refs
}

// Timestamp returns the i-th (time-ordered) edge's timestamp, 0 <= i <
// Count.
func (v *EdgeFileView) Timestamp(ref *EdgeRecordRef, i int) int64 {
	v.charge(colTs, ref.first+i, v.cols.Ts.Len())
	return v.cols.TsMin + int64(v.cols.Ts.Get(ref.first+i))
}

// Destinations returns all destination IDs of the record in time order
// (used by neighbor queries).
func (v *EdgeFileView) Destinations(ref *EdgeRecordRef) []NodeID {
	v.charge(colDsts, ref.first, v.cols.Dsts.Len())
	out := make([]NodeID, ref.Count)
	for i := range out {
		out[i] = NodeID(v.cols.Dsts.Get(ref.first + i))
	}
	return out
}

// EdgeData is the triplet stored per edge (§2.2).
type EdgeData struct {
	Dst       NodeID
	Timestamp int64
	Props     map[string]string
}

// GetEdgeData returns the i-th edge's (destination, timestamp,
// property list) — §2.2's get_edge_data, with i being the TimeOrder: the
// one-edge case of GetEdgeDataRange.
func (v *EdgeFileView) GetEdgeData(ref *EdgeRecordRef, i int) (EdgeData, error) {
	out, err := v.GetEdgeDataRange(ref, i, i+1)
	if err != nil {
		return EdgeData{}, err
	}
	return out[0], nil
}

// TimeRange returns the half-open TimeOrder range [beg, end) of edges
// with timestamps in [tLo, tHi), via binary search over the record's
// stretch of the sorted timestamp column (§3.3's motivation for sorted
// timestamps).
func (v *EdgeFileView) TimeRange(ref *EdgeRecordRef, tLo, tHi int64) (int, int) {
	v.charge(colTs, ref.first, v.cols.Ts.Len())
	return v.searchTs(ref, tLo), v.searchTs(ref, tHi)
}

// searchTs returns the least TimeOrder whose timestamp is at or past t,
// or ref.Count.
func (v *EdgeFileView) searchTs(ref *EdgeRecordRef, t int64) int {
	if t <= v.cols.TsMin {
		return 0
	}
	x := uint64(t - v.cols.TsMin)
	lo, hi := ref.first, ref.first+ref.Count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.cols.Ts.Get(mid) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - ref.first
}

// FindEdges returns the (record, TimeOrder) locations of edges whose
// property lists exactly match every (propertyID, value) pair — the edge
// counterpart of NodeFileView.FindNodes, realized as §3.3 sketches: each
// value is searched wrapped in its delimiters, and a hit is the edge
// whose property list is the last to start at or before it.
func (v *EdgeFileView) FindEdges(props map[string]string) []EdgeMatch {
	if len(props) == 0 {
		return nil
	}
	var result map[EdgeMatch]int
	needed := 0
	records := len(v.cols.Srcs)
	for pid, val := range props {
		order := v.schema.Order(pid)
		if order < 0 {
			return nil
		}
		needed++
		pattern := append([]byte(nil), v.schema.Delimiter(order)...)
		pattern = append(pattern, val...)
		pattern = append(pattern, v.schema.NextDelimiter(order)...)
		for _, g := range searchStarts(v.src, pattern, v.cols.Props, v.cols.Dsts.Len()) {
			if g < 0 {
				continue
			}
			r := v.cols.Starts.SearchGE(0, records, uint64(g)+1) - 1
			v.charge(colStarts, r, records)
			m := EdgeMatch{Src: v.cols.Srcs[r], Type: v.cols.Types[r], TimeOrder: g - int(v.cols.Starts.Get(r))}
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

// recordEnd returns the text offset just past record r: where the next
// record's first list starts, or the end of the text.
func (v *EdgeFileView) recordEnd(r int) int {
	return int(v.cols.Props.Get(int(v.cols.Starts.Get(r + 1))))
}
