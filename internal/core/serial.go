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
	// EdgeFormat versions the EdgeFile record layout: always
	// edgeFormatHot.
	EdgeFormat int
	// The offset columns travel as serialized monotone vectors; the edge
	// record index's key columns stay raw. (A shard from a build with
	// codec-tagged columns carried them under other field names, so here
	// it has none.)
	NodeOffsets  []byte
	EdgeIdxSrcs  []int64
	EdgeIdxTypes []int64
	EdgeIdxOffs  []byte
}

// edgeFormatHot is the wire value of the one EdgeFile record layout, the
// hot-field header (0 was Figure 2 without it).
const edgeFormatHot = 1

// MarshalBinary serializes the shard.
func (s *Shard) MarshalBinary() ([]byte, error) {
	w := shardWire{
		NodeStore:    s.nodeStore.MarshalBinary(),
		EdgeStore:    s.edgeStore.MarshalBinary(),
		NodeIDs:      s.nodes.IDs(),
		NodeSchema:   s.nodes.Schema().Spec(),
		EdgeSchema:   s.edges.Schema().Spec(),
		RawNodeBytes: s.rawNodeBytes,
		RawEdgeBytes: s.rawEdgeBytes,
		EdgeFormat:   edgeFormatHot,
		NodeOffsets:  s.nodes.Offsets().AppendBinary(nil),
		EdgeIdxSrcs:  s.edgeIdxSrcs,
		EdgeIdxTypes: s.edgeIdxTypes,
		EdgeIdxOffs:  s.edgeIdxOffs.AppendBinary(nil),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("core: marshal shard: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalShard reconstructs a shard serialized by MarshalBinary,
// placing it on med (nil = unlimited).
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
	s := &Shard{rawNodeBytes: w.RawNodeBytes, rawEdgeBytes: w.RawEdgeBytes}
	if s.nodeStore, err = succinct.UnmarshalStore(w.NodeStore, med); err != nil {
		return nil, fmt.Errorf("core: node store: %w", err)
	}
	if s.edgeStore, err = succinct.UnmarshalStore(w.EdgeStore, med); err != nil {
		return nil, fmt.Errorf("core: edge store: %w", err)
	}
	if w.EdgeFormat != edgeFormatHot {
		return nil, fmt.Errorf("core: unsupported edge record format %d (this build reads %d)", w.EdgeFormat, edgeFormatHot)
	}
	if len(w.NodeOffsets) == 0 || len(w.EdgeIdxOffs) == 0 {
		return nil, fmt.Errorf("core: unsupported shard format: no offset columns (written with codec-tagged ones or before them, or cut short)")
	}
	nodeOffs, _, err := bitutil.DecodeMonotoneVector(w.NodeOffsets)
	if err != nil {
		return nil, fmt.Errorf("core: node offsets: %w", err)
	}
	s.edgeIdxSrcs = w.EdgeIdxSrcs
	s.edgeIdxTypes = w.EdgeIdxTypes
	if s.edgeIdxOffs, _, err = bitutil.DecodeMonotoneVector(w.EdgeIdxOffs); err != nil {
		return nil, fmt.Errorf("core: edge index offsets: %w", err)
	}
	if nodeOffs.Len() != len(w.NodeIDs) || s.edgeIdxOffs.Len() != len(s.edgeIdxSrcs) || len(s.edgeIdxTypes) != len(s.edgeIdxSrcs) {
		return nil, fmt.Errorf("core: index columns disagree in length (%d node IDs/%d offsets, %d/%d/%d edge index)",
			len(w.NodeIDs), nodeOffs.Len(), len(s.edgeIdxSrcs), len(s.edgeIdxTypes), s.edgeIdxOffs.Len())
	}
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, w.NodeIDs, nodeOffs, med)
	s.edges = layout.NewEdgeFileView(s.edgeStore, edgeSchema)
	return s, nil
}
