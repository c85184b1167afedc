package layout

import (
	"fmt"
	"slices"
	"sort"

	"zipg/internal/bitutil"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

// NodeID identifies a node. EdgeType tags an edge with its kind (§2.1).
type NodeID = int64

// EdgeType identifies the kind of an edge (comment, like, friendship...).
type EdgeType = int64

// Node is a node with its property list, the unit of NodeFile input.
type Node struct {
	ID    NodeID
	Props map[string]string
}

// BuildNodeFile serializes nodes into the NodeFile flat layout of
// Figure 1 and returns the flat file plus the sorted (NodeID, offset)
// index — the layout's "third data structure". Node order in the file is
// ascending NodeID.
func BuildNodeFile(nodes []Node, schema *PropertySchema) (flat []byte, ids []NodeID, offsets []int64, err error) {
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].ID == sorted[i-1].ID {
			return nil, nil, nil, fmt.Errorf("layout: duplicate node ID %d", sorted[i].ID)
		}
	}
	ids = make([]NodeID, len(sorted))
	offsets = make([]int64, len(sorted))
	size := 0
	for _, n := range sorted {
		size += schema.Figure1Header() + schema.PropsEncodedSize(n.Props)
	}
	flat = make([]byte, 0, size)
	for i, n := range sorted {
		ids[i] = n.ID
		offsets[i] = int64(len(flat))
		if flat, err = schema.AppendRecord(flat, n.Props); err != nil {
			return nil, nil, nil, fmt.Errorf("layout: node %d: %w", n.ID, err)
		}
	}
	return flat, ids, offsets, nil
}

// NodeFileAnchored reports whether a NodeFile under schema is compressed
// by a store sampled at its records' delimiters rather than on the α
// grid: when it has exactly one property. Then every read — a property,
// the wildcard, a search hit — starts at a record's delimiter, so
// samples anywhere else go unused; with more, a read skips to a value
// inside the record, and the grid's interior samples are what reach it.
func NodeFileAnchored(schema *PropertySchema) bool {
	return schema.NumProperties() == 1
}

// CompressNodeFile compresses a NodeFile's text under schema: at its
// records' delimiters if NodeFileAnchored, else on the α grid at
// opts.SamplingRate.
func CompressNodeFile(flat []byte, schema *PropertySchema, opts succinct.Options) *succinct.Store {
	if NodeFileAnchored(schema) {
		return succinct.BuildAnchored(flat, schema.ListAnchor(), opts.Medium)
	}
	return succinct.Build(flat, opts)
}

// NodeFileView executes node queries over a serialized NodeFile (§3.4).
// The same view works over a compressed succinct source (immutable
// shards) or raw bytes (LogStore).
//
// A one-property NodeFile is compressed by a store sampled at its
// records' delimiters (CompressNodeFile). The delimiter is the only such
// byte in a record — values are printable, the length digits too — so
// record k's is anchor k. Every read of such a record wants its one
// value, which runs from the delimiter to the end marker, so the view
// reads it from its anchor to the record's end, which the offsets give,
// and reads no length digit.
type NodeFileView struct {
	src      ByteSource
	schema   *PropertySchema
	ids      []NodeID
	anchored bool // src is sampled at the records' delimiters
	// offs holds the per-record start offsets: record starts ascend, so
	// the column compresses from 8 bytes/node to roughly its delta
	// entropy.
	offs *bitutil.MonotoneVector

	med *memsim.Medium // nil outside budgeted experiments: no accounting
	reg uint32         // region for the (NodeID, offset) index
}

// NewNodeFileView wraps a serialized NodeFile. ids must be sorted and
// offs (see PackOffsets) parallel to it. The index's footprint and
// touches are charged to med; nil means plain memory, with no access
// accounting at all.
func NewNodeFileView(src ByteSource, schema *PropertySchema, ids []NodeID, offs *bitutil.MonotoneVector, med *memsim.Medium) *NodeFileView {
	v := &NodeFileView{src: src, schema: schema, ids: ids, offs: offs, med: med}
	_, v.anchored = anchoredStore(src)
	if med != nil {
		// The index charge stays at the historical 16 bytes/node so
		// medium-pressure experiments remain comparable; the Go-heap
		// saving from the packed column is real either way.
		v.reg = med.Register(int64(len(ids)) * 16)
	}
	return v
}

// chargeIndexAt bills one touch of the (NodeID, offset) index at entry k.
func (v *NodeFileView) chargeIndexAt(k int) {
	if v.med != nil {
		v.med.Access(v.reg, int64(k)*16, 16)
	}
}

// PackOffsets packs a record-offset column (non-decreasing).
func PackOffsets(offsets []int64) *bitutil.MonotoneVector {
	return bitutil.NewMonotoneVector(offsets)
}

// NumNodes returns the number of nodes in the file.
func (v *NodeFileView) NumNodes() int { return len(v.ids) }

// Schema returns the node property schema.
func (v *NodeFileView) Schema() *PropertySchema { return v.schema }

// IDs returns the sorted node IDs backing the view.
func (v *NodeFileView) IDs() []NodeID { return v.ids }

// Offsets returns the packed offset column (for serialization and size
// reports).
func (v *NodeFileView) Offsets() *bitutil.MonotoneVector { return v.offs }

// Contains reports whether the file holds a record for id.
func (v *NodeFileView) Contains(id NodeID) bool { return v.indexOf(id) >= 0 }

// indexOf returns the index of id in the sorted index, or -1.
func (v *NodeFileView) indexOf(id NodeID) int {
	k := bitutil.SearchGE(v.ids, id)
	v.chargeIndexAt(k) // the binary search's touches on the index
	if k < len(v.ids) && v.ids[k] == id {
		return k
	}
	return -1
}

// GetProperty returns the value of one property for a node and whether
// the node exists and has the property. Per §3.4 this costs the index
// lookup, the length-header bytes, and one extract of the value itself —
// issued as a single record walk, so over a compressed source the header
// read and the value read share one ISA anchor.
func (v *NodeFileView) GetProperty(id NodeID, propertyID string) (string, bool) {
	k := v.indexOf(id)
	if k < 0 {
		return "", false
	}
	order := v.schema.Order(propertyID)
	if order < 0 {
		return "", false
	}
	if v.anchored {
		val, ok := v.anchoredValue(k)
		return val, ok && val != ""
	}
	sc := getScratch()
	defer putScratch(sc)
	hs := v.schema.Figure1Header()
	w := newRecWalk(v.src, int(v.offs.Get(k)))
	sc.buf = w.appendN(sc.buf[:0], hs)
	if len(sc.buf) < hs {
		return "", false
	}
	lengths := sc.lengths(v.schema.NumProperties())
	v.schema.decodeLengthsInto(lengths, sc.buf)
	if lengths[order] == 0 {
		return "", false
	}
	off, n := v.schema.valueLocation(lengths, order)
	w.skip(off - hs)
	sc.buf = w.appendN(sc.buf[:0], n)
	if len(sc.buf) < n {
		return "", false // the source ends inside the value the header promised
	}
	return string(sc.buf), true
}

// GetProperties returns the values for the given property IDs; absent
// properties yield empty strings. A nil or empty propertyIDs slice is the
// wildcard: all properties in schema order (paper §2.2), for which the
// record's body — every value — is read in one go after its length
// header. Otherwise the record is read in one front-to-back walk,
// skipping unrequested values.
func (v *NodeFileView) GetProperties(id NodeID, propertyIDs []string) ([]string, bool) {
	k := v.indexOf(id)
	if k < 0 {
		return nil, false
	}
	if v.anchored {
		return v.anchoredProperties(k, propertyIDs)
	}
	sc := getScratch()
	defer putScratch(sc)
	w := newRecWalk(v.src, int(v.offs.Get(k)))
	hs := v.schema.Figure1Header()
	sc.buf = w.appendN(sc.buf[:0], hs)
	if len(sc.buf) < hs {
		return nil, false
	}
	lengths := sc.lengths(v.schema.NumProperties())
	v.schema.decodeLengthsInto(lengths, sc.buf)
	// at[o] is where property o's value starts in sc.buf, or -1 when it
	// is not wanted.
	at := sc.orders(len(lengths))
	last := -1
	all := len(propertyIDs) == 0
	if all {
		body := 0
		for o, n := range lengths {
			body += len(v.schema.Delimiter(o))
			at[o] = body
			body += n
		}
		if sc.buf = w.appendN(sc.buf[:0], body); len(sc.buf) < body {
			return nil, false // the source ends inside the values the header promised
		}
		propertyIDs = v.schema.IDs()
	} else {
		for o := range at {
			at[o] = -1
		}
		for _, pid := range propertyIDs {
			if o := v.schema.Order(pid); o >= 0 {
				at[o], last = 0, max(last, o)
			}
		}
		sc.buf = sc.buf[:0]
	}
	for o := 0; o <= last; o++ {
		w.skip(len(v.schema.Delimiter(o)))
		n := lengths[o]
		if at[o] < 0 || n == 0 {
			w.skip(n)
			continue
		}
		at[o] = len(sc.buf)
		if sc.buf = w.appendN(sc.buf, n); len(sc.buf) < at[o]+n {
			return nil, false // the source ends inside the value the header promised
		}
	}
	vals := string(sc.buf) // one allocation; each value is a substring
	out := make([]string, len(propertyIDs))
	for i, pid := range propertyIDs {
		o := i
		if !all {
			o = v.schema.Order(pid)
		}
		if o >= 0 && lengths[o] > 0 {
			out[i] = vals[at[o] : at[o]+lengths[o]]
		}
	}
	return out, true
}

// anchoredValue reads record k of an anchored NodeFile in one walk from
// its delimiter, anchor k, to its end: the next record's offset, or the
// text's. Its one value lies between the delimiter and the end marker.
func (v *NodeFileView) anchoredValue(k int) (string, bool) {
	start := int(v.offs.Get(k)) + v.schema.Figure1Header()
	end := v.src.InputLen()
	if k+1 < v.offs.Len() {
		end = int(v.offs.Get(k + 1))
	}
	delim, n := len(v.schema.Delimiter(0)), end-start
	if n < delim+1 {
		return "", false // offsets that leave no room for the list: a damaged archive
	}
	sc := getScratch()
	defer putScratch(sc)
	if sc.buf = readSpan(v.src, sc.buf[:0], k, start, n, nil); len(sc.buf) < n {
		return "", false
	}
	return string(sc.buf[delim : n-1]), true
}

// anchoredProperties is GetProperties on an anchored NodeFile: the one
// value, wherever its ID is asked for.
func (v *NodeFileView) anchoredProperties(k int, propertyIDs []string) ([]string, bool) {
	val, ok := v.anchoredValue(k)
	if !ok {
		return nil, false
	}
	if len(propertyIDs) == 0 {
		return []string{val}, true
	}
	out := make([]string, len(propertyIDs))
	for i, pid := range propertyIDs {
		if v.schema.Order(pid) == 0 {
			out[i] = val
		}
	}
	return out, true
}

// GetAllProps returns the node's full property map.
func (v *NodeFileView) GetAllProps(id NodeID) (map[string]string, bool) {
	vals, ok := v.GetProperties(id, nil)
	if !ok {
		return nil, false
	}
	props := make(map[string]string)
	for i, pid := range v.schema.IDs() {
		if vals[i] != "" {
			props[pid] = vals[i]
		}
	}
	return props, true
}

// FindNodes returns the IDs of all nodes whose properties exactly match
// every (propertyID, value) pair (§3.4's get_node_ids): each value is
// wrapped in its property's delimiter and the next delimiter, located
// with the search primitive, and translated back to node IDs via binary
// search over the offset index — or, on an anchored NodeFile, where each
// hit is its own record's delimiter, by the anchor it sits on. Multiple
// pairs intersect.
func (v *NodeFileView) FindNodes(props map[string]string) []NodeID {
	if len(props) == 0 {
		return nil
	}
	var result map[NodeID]bool
	for pid, val := range props {
		order := v.schema.Order(pid)
		if order < 0 {
			return nil
		}
		pattern := append([]byte(nil), v.schema.Delimiter(order)...)
		pattern = append(pattern, val...)
		pattern = append(pattern, v.schema.NextDelimiter(order)...)
		recs := searchStarts(v.src, pattern, v.offs, v.offs.Len())
		ids := make(map[NodeID]bool, len(recs))
		for _, k := range recs {
			if k >= 0 && k < len(v.ids) {
				v.chargeIndexAt(k)
				ids[v.ids[k]] = true
			}
		}
		if result == nil {
			result = ids
		} else {
			for id := range result {
				if !ids[id] {
					delete(result, id)
				}
			}
		}
		if len(result) == 0 {
			return nil
		}
	}
	out := make([]NodeID, 0, len(result))
	for id := range result {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// MatchesProps reports whether node id has every given property value
// (used by get_neighbor_ids' filter step, which checks each neighbor
// instead of joining — §2.2).
func (v *NodeFileView) MatchesProps(id NodeID, props map[string]string) bool {
	for pid, val := range props {
		got, ok := v.GetProperty(id, pid)
		if !ok || got != val {
			return false
		}
	}
	return true
}
