package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"zipg/internal/bitutil"
	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/succinct"
)

// shardWire is the on-disk/wire form of a shard: the two serialized
// succinct stores, the uncompressed node index, and the schema specs
// needed to rebuild the views. This is the "serialized flat files"
// persistence of §4.1.
type shardWire struct {
	NodeStore    []byte
	EdgeStore    []byte
	NodeIDs      []int64
	NodeSchema   layout.SchemaSpec
	EdgeSchema   layout.SchemaSpec
	RawNodeBytes int
	RawEdgeBytes int
	// EdgeFormat versions the EdgeFile layout: always edgeFormatColumns.
	EdgeFormat int
	// The NodeFile offsets and the EdgeFile's columns travel as
	// serialized vectors; the record keys stay raw. (A shard from a
	// build with codec-tagged columns carried them under other field
	// names, so here it has none.)
	NodeOffsets  []byte
	EdgeIdxSrcs  []int64
	EdgeIdxTypes []int64
	EdgeStarts   []byte
	EdgeProps    []byte
	EdgeTsMin    int64
	EdgeTs       []byte
	EdgeDsts     []byte
}

// edgeFormatColumns is the wire value of the one EdgeFile layout this
// build reads: every number and key in a column beside a text of
// header-free property lists, whose store is sampled at the lists'
// starts. The formats before it kept numbers in the text, as
// edgeFormats names: all of them (0), a hot-field header (1), or each
// property list's length header (2); or kept the record keys in it and
// its store on the α grid (3).
const edgeFormatColumns = 4

var edgeFormats = []string{"Figure 2 text", "hot-header text", "length-header text", "keyed text, α-grid samples", "list-anchored text"}

// MarshalBinary serializes the shard.
func (s *Shard) MarshalBinary() ([]byte, error) {
	cols := s.edges.Columns()
	w := shardWire{
		NodeStore:    s.nodeStore.MarshalBinary(),
		EdgeStore:    s.edgeStore.MarshalBinary(),
		NodeIDs:      s.nodes.IDs(),
		NodeSchema:   s.nodes.Schema().Spec(),
		EdgeSchema:   s.edges.Schema().Spec(),
		RawNodeBytes: s.rawNodeBytes,
		RawEdgeBytes: s.rawEdgeBytes,
		EdgeFormat:   edgeFormatColumns,
		NodeOffsets:  s.nodes.Offsets().AppendBinary(nil),
		EdgeIdxSrcs:  cols.Srcs,
		EdgeIdxTypes: cols.Types,
		EdgeStarts:   cols.Starts.AppendBinary(nil),
		EdgeProps:    cols.Props.AppendBinary(nil),
		EdgeTsMin:    cols.TsMin,
		EdgeTs:       cols.Ts.AppendBinary(nil),
		EdgeDsts:     cols.Dsts.AppendBinary(nil),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("core: marshal shard: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalShard reconstructs a shard serialized by MarshalBinary,
// placing it on med (nil = unlimited). The input is untrusted: every
// column is checked before a view is built over it.
func UnmarshalShard(data []byte, med *memsim.Medium) (*Shard, error) {
	var w shardWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: unmarshal shard: %w", err)
	}
	nodeSchema, err := w.NodeSchema.Build()
	if err != nil {
		return nil, fmt.Errorf("core: node schema: %w", err)
	}
	edgeSchema, err := w.EdgeSchema.Build()
	if err != nil {
		return nil, fmt.Errorf("core: edge schema: %w", err)
	}
	// The layout is checked first, so that an archive of an older one is
	// refused by the name of its layout, not by its stores' magic.
	if w.EdgeFormat != edgeFormatColumns {
		name := "unknown"
		if w.EdgeFormat >= 0 && w.EdgeFormat < len(edgeFormats) {
			name = edgeFormats[w.EdgeFormat]
		}
		return nil, fmt.Errorf("core: unsupported edge record format %d (%s; this build reads %d, %s)",
			w.EdgeFormat, name, edgeFormatColumns, edgeFormats[edgeFormatColumns])
	}
	s := &Shard{rawNodeBytes: w.RawNodeBytes, rawEdgeBytes: w.RawEdgeBytes}
	if s.nodeStore, err = succinct.UnmarshalStore(w.NodeStore, med); err != nil {
		return nil, fmt.Errorf("core: node store: %w", err)
	}
	if s.edgeStore, err = succinct.UnmarshalStore(w.EdgeStore, med); err != nil {
		return nil, fmt.Errorf("core: edge store: %w", err)
	}
	if err := checkNodeSampling(s.nodeStore, nodeSchema, len(w.NodeIDs)); err != nil {
		return nil, err
	}
	if a, anchored := s.edgeStore.AnchorByte(); !anchored || a != edgeSchema.ListAnchor() {
		return nil, fmt.Errorf("core: edge store is not sampled at the property lists' first byte 0x%02x", edgeSchema.ListAnchor())
	}
	if len(w.NodeOffsets) == 0 || len(w.EdgeStarts) == 0 {
		return nil, fmt.Errorf("core: unsupported shard format: no offset columns (written with codec-tagged ones or before them, or cut short)")
	}
	nodeOffs, _, err := bitutil.DecodeMonotoneVector(w.NodeOffsets)
	if err != nil {
		return nil, fmt.Errorf("core: node offsets: %w", err)
	}
	if nodeOffs.Len() != len(w.NodeIDs) {
		return nil, fmt.Errorf("core: node index columns disagree in length (%d IDs, %d offsets)", len(w.NodeIDs), nodeOffs.Len())
	}
	cols, err := decodeEdgeColumns(&w)
	if err != nil {
		return nil, err
	}
	if err := cols.Check(s.edgeStore.InputLen()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if a, edges := s.edgeStore.Anchors(), cols.Dsts.Len(); a != edges {
		return nil, fmt.Errorf("core: edge store has %d property-list anchors for %d edges", a, edges)
	}
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, w.NodeIDs, nodeOffs, med)
	s.edges = layout.NewEdgeFileView(s.edgeStore, edgeSchema, cols, med)
	return s, nil
}

// checkNodeSampling checks that a NodeFile store of nodes records under
// schema is sampled where Build samples it: a one-property NodeFile at
// its records' delimiter, one anchor a record; any other on the α grid.
func checkNodeSampling(st *succinct.Store, schema *layout.PropertySchema, nodes int) error {
	a, anchored := st.AnchorByte()
	want := layout.NodeFileAnchored(schema)
	switch {
	case anchored && !want:
		return fmt.Errorf("core: node store of %d properties is sampled at anchors, not on the α grid", schema.NumProperties())
	case want && !anchored:
		return fmt.Errorf("core: one-property node store is sampled on the α grid, not at its records' delimiter 0x%02x", schema.ListAnchor())
	case want && a != schema.ListAnchor():
		return fmt.Errorf("core: one-property node store is sampled at anchors 0x%02x, not at its records' delimiter 0x%02x", a, schema.ListAnchor())
	case want && st.Anchors() != nodes:
		return fmt.Errorf("core: node store has %d record anchors for %d nodes", st.Anchors(), nodes)
	}
	return nil
}

// decodeEdgeColumns decodes the EdgeFile's columns.
func decodeEdgeColumns(w *shardWire) (*layout.EdgeColumns, error) {
	c := &layout.EdgeColumns{Srcs: w.EdgeIdxSrcs, Types: w.EdgeIdxTypes, TsMin: w.EdgeTsMin, RawBytes: w.RawEdgeBytes}
	var err error
	if c.Starts, _, err = bitutil.DecodeMonotoneVector(w.EdgeStarts); err != nil {
		return nil, fmt.Errorf("core: edge record starts: %w", err)
	}
	if c.Props, _, err = bitutil.DecodeMonotoneVector(w.EdgeProps); err != nil {
		return nil, fmt.Errorf("core: edge property offsets: %w", err)
	}
	if c.Ts, _, err = bitutil.DecodePackedVector(w.EdgeTs); err != nil {
		return nil, fmt.Errorf("core: edge timestamps: %w", err)
	}
	if c.Dsts, _, err = bitutil.DecodePackedVector(w.EdgeDsts); err != nil {
		return nil, fmt.Errorf("core: edge destinations: %w", err)
	}
	return c, nil
}
