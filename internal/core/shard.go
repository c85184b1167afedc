// Package core implements a ZipG shard: one partition of the graph held
// as a compressed NodeFile and EdgeFile (§3.3) queried directly in their
// compressed form (§3.4). Shards are immutable once built — all mutation
// happens in the LogStore and in the store-level update pointers and
// deletion bitmaps (§3.5) — so shard reads take no locks.
package core

import (
	"fmt"

	"zipg/internal/bitutil"
	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/succinct"
)

// Options configures shard construction: both of the shard's succinct
// stores are built with it, and its Medium also holds the NodeFile's
// offset index.
type Options = succinct.Options

// Shard is one immutable graph partition in ZipG layout over compressed
// storage.
type Shard struct {
	nodes *layout.NodeFileView
	edges *layout.EdgeFileView

	nodeStore *succinct.Store
	edgeStore *succinct.Store

	// The edge record index lists every record's key and offset in file
	// order (used by edge-property search and by batch reads, which
	// locate records by binary search here instead of compressed
	// search). Stored as columns: the key columns stay raw for the
	// binary search, while the offset column — strictly increasing — is
	// packed like the NodeFile offsets.
	edgeIdxSrcs  []layout.NodeID
	edgeIdxTypes []layout.EdgeType
	edgeIdxOffs  *bitutil.MonotoneVector

	rawNodeBytes int
	rawEdgeBytes int
}

// Build compresses the given nodes and edges into a shard. The schemas
// must be the system-global ones so delimiters agree across shards.
func Build(nodes []layout.Node, edges []layout.Edge, nodeSchema, edgeSchema *layout.PropertySchema, opts Options) (*Shard, error) {
	nodeFlat, ids, offs, err := layout.BuildNodeFile(nodes, nodeSchema)
	if err != nil {
		return nil, fmt.Errorf("core: node file: %w", err)
	}
	edgeFlat, edgeIndex, err := layout.BuildEdgeFile(edges, edgeSchema)
	if err != nil {
		return nil, fmt.Errorf("core: edge file: %w", err)
	}
	// The NodeFile and EdgeFile suffix arrays are independent; build them
	// concurrently on the shared pool (each Build stays sequential inside).
	stores := parallel.Map("core.build_succinct", 2, func(i int) *succinct.Store {
		if i == 0 {
			return succinct.Build(nodeFlat, opts)
		}
		return succinct.Build(edgeFlat, opts)
	})
	s := &Shard{
		nodeStore:    stores[0],
		edgeStore:    stores[1],
		rawNodeBytes: len(nodeFlat),
		rawEdgeBytes: len(edgeFlat),
	}
	s.setEdgeIndex(edgeIndex)
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, ids, layout.PackOffsets(offs), opts.Medium)
	s.edges = layout.NewEdgeFileView(s.edgeStore, edgeSchema)
	return s, nil
}

// setEdgeIndex splits the build-time edge record index into its key
// columns and the packed offset column.
func (s *Shard) setEdgeIndex(index []layout.EdgeRecordIndex) {
	s.edgeIdxSrcs = make([]layout.NodeID, len(index))
	s.edgeIdxTypes = make([]layout.EdgeType, len(index))
	offs := make([]int64, len(index))
	for i, r := range index {
		s.edgeIdxSrcs[i] = r.Src
		s.edgeIdxTypes[i] = r.Type
		offs[i] = r.Offset
	}
	s.edgeIdxOffs = layout.PackOffsets(offs)
}

// EdgeIndex materializes the columnar edge record index back into row
// form, in file order — ascending (source, type). The whole-file scans
// that want rows (edge-property search, compaction) are already
// O(records).
func (s *Shard) EdgeIndex() []layout.EdgeRecordIndex {
	out := make([]layout.EdgeRecordIndex, len(s.edgeIdxSrcs))
	for i := range out {
		out[i] = layout.EdgeRecordIndex{Src: s.edgeIdxSrcs[i], Type: s.edgeIdxTypes[i], Offset: int64(s.edgeIdxOffs.Get(i))}
	}
	return out
}

// Nodes returns the shard's NodeFile view.
func (s *Shard) Nodes() *layout.NodeFileView { return s.nodes }

// Edges returns the shard's EdgeFile view.
func (s *Shard) Edges() *layout.EdgeFileView { return s.edges }

// NumNodes returns how many node records the shard holds.
func (s *Shard) NumNodes() int { return s.nodes.NumNodes() }

// CompressedSize returns the shard's compressed footprint in bytes
// (excluding the node offset index, which is uncompressed by design).
func (s *Shard) CompressedSize() int {
	return s.nodeStore.CompressedSize() + s.edgeStore.CompressedSize()
}

// RawSize returns the size of the uncompressed flat files.
func (s *Shard) RawSize() int { return s.rawNodeBytes + s.rawEdgeBytes }

// SamplingRate returns the α the shard's succinct stores were built with.
func (s *Shard) SamplingRate() int { return s.nodeStore.SamplingRate() }

// EdgeRecordOffset locates the (src, etype) record's start offset via
// binary search over the in-memory build index — O(log records) with no
// compressed-store work, where GetEdgeRecord pays a full backward
// search. The batch read paths use this to turn record location into
// pure arithmetic before the sorted sweep.
func (s *Shard) EdgeRecordOffset(src layout.NodeID, etype layout.EdgeType) (int64, bool) {
	lo, hi := 0, len(s.edgeIdxSrcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.edgeIdxSrcs[mid] < src || (s.edgeIdxSrcs[mid] == src && s.edgeIdxTypes[mid] < etype) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.edgeIdxSrcs) && s.edgeIdxSrcs[lo] == src && s.edgeIdxTypes[lo] == etype {
		return int64(s.edgeIdxOffs.Get(lo)), true
	}
	return 0, false
}

// EdgeRecord returns the handle of the shard's (src, etype) record:
// located by EdgeRecordOffset, its header parsed in one walk.
func (s *Shard) EdgeRecord(src layout.NodeID, etype layout.EdgeType) (layout.EdgeRecordRef, bool) {
	off, ok := s.EdgeRecordOffset(src, etype)
	if !ok {
		return layout.EdgeRecordRef{}, false
	}
	return s.edges.GetEdgeRecordAt(off, src, etype)
}

// FindEdges returns the edges in this shard whose property lists match
// every pair exactly — the edge-search extension of §3.3.
func (s *Shard) FindEdges(props map[string]string) []layout.EdgeMatch {
	return s.edges.FindEdges(s.EdgeIndex(), props)
}

// CodecReport describes every encoded region of the shard: the two
// succinct stores' Ψ/marks/SA/ISA regions plus the NodeFile and EdgeFile
// offset columns, with per-region encoding and size.
func (s *Shard) CodecReport() []succinct.RegionCodec {
	var out []succinct.RegionCodec
	for _, rc := range s.nodeStore.RegionCodecs() {
		rc.Region = "node/" + rc.Region
		out = append(out, rc)
	}
	for _, rc := range s.edgeStore.RegionCodecs() {
		rc.Region = "edge/" + rc.Region
		out = append(out, rc)
	}
	return append(out,
		succinct.OffsetsRegion("node/offsets", s.nodes.Offsets()),
		succinct.OffsetsRegion("edge/index", s.edgeIdxOffs))
}
