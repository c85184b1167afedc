// Package core implements a ZipG shard: one partition of the graph held
// as a compressed NodeFile and EdgeFile (§3.3) queried directly in their
// compressed form (§3.4). Shards are immutable once built — all mutation
// happens in the LogStore and in the store-level update pointers and
// deletion bitmaps (§3.5) — so shard reads take no locks.
package core

import (
	"fmt"

	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/succinct"
)

// Options configures shard construction: a multi-property NodeFile's
// succinct store is built at its SamplingRate (the EdgeFile's is sampled
// at its property lists' starts and a one-property NodeFile's at its
// records' delimiters, which no α moves), and its Medium holds both
// stores, the NodeFile's offset index and the EdgeFile's columns.
type Options = succinct.Options

// Shard is one immutable graph partition in ZipG layout over compressed
// storage.
type Shard struct {
	nodes *layout.NodeFileView
	edges *layout.EdgeFileView

	nodeStore *succinct.Store
	edgeStore *succinct.Store

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
	edgeFlat, edgeCols, err := layout.BuildEdgeFile(edges, edgeSchema)
	if err != nil {
		return nil, fmt.Errorf("core: edge file: %w", err)
	}
	// The NodeFile and EdgeFile suffix arrays are independent; build them
	// concurrently on the shared pool (each Build stays sequential inside).
	stores := parallel.Map("core.build_succinct", 2, func(i int) *succinct.Store {
		if i == 0 {
			return layout.CompressNodeFile(nodeFlat, nodeSchema, opts)
		}
		return succinct.BuildAnchored(edgeFlat, edgeSchema.ListAnchor(), opts.Medium)
	})
	s := &Shard{
		nodeStore:    stores[0],
		edgeStore:    stores[1],
		rawNodeBytes: len(nodeFlat),
		rawEdgeBytes: edgeCols.RawBytes,
	}
	s.nodes = layout.NewNodeFileView(s.nodeStore, nodeSchema, ids, layout.PackOffsets(offs), opts.Medium)
	s.edges = layout.NewEdgeFileView(s.edgeStore, edgeSchema, edgeCols, opts.Medium)
	return s, nil
}

// Nodes returns the shard's NodeFile view.
func (s *Shard) Nodes() *layout.NodeFileView { return s.nodes }

// Edges returns the shard's EdgeFile view.
func (s *Shard) Edges() *layout.EdgeFileView { return s.edges }

// NumNodes returns how many node records the shard holds.
func (s *Shard) NumNodes() int { return s.nodes.NumNodes() }

// CompressedSize returns the shard's compressed footprint in bytes: the
// two succinct stores and the EdgeFile's columns (not the node and edge
// record keys, nor the node offset column, the in-memory indexes).
func (s *Shard) CompressedSize() int {
	return s.nodeStore.CompressedSize() + s.edgeStore.CompressedSize() + s.edges.Columns().SizeBytes()
}

// RawSize returns the size of the uncompressed flat files, the EdgeFile
// in Figure 2's all-text layout.
func (s *Shard) RawSize() int { return s.rawNodeBytes + s.rawEdgeBytes }

// NodeSampling describes where the shard's NodeFile store is sampled:
// "anchored 0x02" (at its records' delimiter byte) or "alpha=32".
func (s *Shard) NodeSampling() string {
	if a, anchored := s.nodeStore.AnchorByte(); anchored {
		return fmt.Sprintf("anchored 0x%02x", a)
	}
	return fmt.Sprintf("alpha=%d", s.nodeStore.SamplingRate())
}

// CodecReport describes every encoded region of the shard: the two
// succinct stores' Ψ/marks/SA/ISA regions plus the NodeFile offset
// column and the EdgeFile's columns, with per-region encoding and size.
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
	cols := s.edges.Columns()
	return append(out,
		succinct.OffsetsRegion("node/offsets", s.nodes.Offsets()),
		succinct.OffsetsRegion("edge/starts", cols.Starts),
		succinct.OffsetsRegion("edge/props", cols.Props),
		succinct.PackedRegion("edge/ts", cols.Ts),
		succinct.PackedRegion("edge/dsts", cols.Dsts))
}
