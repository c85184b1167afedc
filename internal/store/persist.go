package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"zipg/internal/core"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/memsim"
	"zipg/internal/parallel"
)

// This file implements §4.1's data persistence: the store serializes its
// compressed shards, the live LogStore's contents, the update pointers
// and the deletion state as flat sections, and can be reconstructed from
// them. (The paper mmaps the same serialized files; here loading
// re-registers the structures on a fresh medium.)

// persistHeader leads the stream and pins the format.
const persistMagic = "ZIPGSTORE1"

// storeWire is the gob envelope for the store's mutable state.
type storeWire struct {
	NumShards    int
	SamplingRate int
	Threshold    int64
	NodeSchema   layout.SchemaSpec
	EdgeSchema   layout.SchemaSpec

	Primaries [][]byte // serialized shards
	// Frozen holds one entry per frozen generation; a nil blob marks a
	// sealed raw generation whose contents live in RawGens instead.
	Frozen  [][]byte
	RawGens []rawGenWire

	LogNodes []layout.Node
	LogEdges []layout.Edge

	Ptrs         map[layout.NodeID][]int
	DeletedNodes []layout.NodeID
	// Deleted physical edge positions, keyed by (fragment index, src,
	// etype). Fragment indexes: 0..NumShards-1 are primaries, then
	// frozen generations.
	DeletedPhys []deletedPhysWire

	Rollovers int
}

type deletedPhysWire struct {
	Fragment int
	Src      layout.NodeID
	EType    layout.EdgeType
	Indexes  []int
}

// rawGenWire is one sealed-but-uncompressed generation: the live
// entries of its LogStore (deletes remove entries in place).
type rawGenWire struct {
	Gen   int
	Nodes []layout.Node
	Edges []layout.Edge
}

// Save serializes the entire store (shards, LogStore contents, update
// pointers, deletion state) to w.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()

	wire := storeWire{
		NumShards:    s.cfg.NumShards,
		SamplingRate: s.cfg.SamplingRate,
		Threshold:    s.cfg.LogStoreThreshold,
		NodeSchema:   s.nodeSchema.Spec(),
		EdgeSchema:   s.edgeSchema.Spec(),
		Ptrs:         s.ptrs,
		Rollovers:    s.rollovers,
	}
	fragIndex := make(map[*core.Shard]int)
	for i, sh := range s.primaries {
		blob, err := sh.MarshalBinary()
		if err != nil {
			return fmt.Errorf("store: save primary %d: %w", i, err)
		}
		wire.Primaries = append(wire.Primaries, blob)
		fragIndex[sh] = i
	}
	cur := s.curGenLocked()
	for g, f := range s.gens {
		switch {
		case g == cur:
			wire.LogNodes, wire.LogEdges = f.log.Contents()
		case f.log != nil:
			rn, re := f.log.Contents()
			wire.Frozen = append(wire.Frozen, nil)
			wire.RawGens = append(wire.RawGens, rawGenWire{Gen: g, Nodes: rn, Edges: re})
		default:
			blob, err := f.shard.MarshalBinary()
			if err != nil {
				return fmt.Errorf("store: save frozen %d: %w", g, err)
			}
			wire.Frozen = append(wire.Frozen, blob)
			fragIndex[f.shard] = s.cfg.NumShards + g
		}
	}
	for id := range s.deletedNodes {
		wire.DeletedNodes = append(wire.DeletedNodes, id)
	}
	for ref, idxs := range s.deletedPhys {
		fi, ok := fragIndex[ref.shard]
		if !ok {
			continue
		}
		dw := deletedPhysWire{Fragment: fi, Src: ref.src, EType: ref.etype}
		for i := range idxs {
			dw.Indexes = append(dw.Indexes, i)
		}
		wire.DeletedPhys = append(wire.DeletedPhys, dw)
	}

	if _, err := io.WriteString(w, persistMagic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reconstructs a store serialized by Save, placing it on med
// (nil = unlimited).
func Load(r io.Reader, med *memsim.Medium) (*Store, error) {
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	var wire storeWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	// The archive chose these numbers; reads index by them unchecked.
	if wire.NumShards < 1 || wire.NumShards != len(wire.Primaries) {
		return nil, fmt.Errorf("store: load: NumShards %d with %d Primaries", wire.NumShards, len(wire.Primaries))
	}
	for id, gens := range wire.Ptrs {
		for _, g := range gens {
			if g < 0 || g > len(wire.Frozen) {
				return nil, fmt.Errorf("store: load: Ptrs of node %d name generation %d, outside [0,%d]", id, g, len(wire.Frozen))
			}
		}
	}
	nodeSchema, err := wire.NodeSchema.Build()
	if err != nil {
		return nil, err
	}
	edgeSchema, err := wire.EdgeSchema.Build()
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg: Config{
			NumShards:         wire.NumShards,
			SamplingRate:      wire.SamplingRate,
			Medium:            med,
			LogStoreThreshold: wire.Threshold,
		},
		nodeSchema:   nodeSchema,
		edgeSchema:   edgeSchema,
		ptrs:         wire.Ptrs,
		deletedNodes: make(map[layout.NodeID]bool, len(wire.DeletedNodes)),
		deletedPhys:  make(map[shardEdgeRef]map[int]bool),
		rollovers:    wire.Rollovers,
	}
	// Event sequences are runtime state: a reloaded store starts every
	// partition's sequence at 0 (subscribers cannot span a restart).
	s.events.init(wire.NumShards)
	if s.cfg.LogStoreThreshold <= 0 {
		s.cfg.LogStoreThreshold = DefaultLogStoreThreshold
	}
	if s.ptrs == nil {
		s.ptrs = make(map[layout.NodeID][]int)
	}
	// Every fragment blob deserializes independently; fan the unmarshals
	// out over the shared pool (frags keeps the primaries-then-frozen
	// order the DeletedPhys fragment indexes were saved against).
	nPrim := len(wire.Primaries)
	frags, err := parallel.MapErr("store.load_shards", nPrim+len(wire.Frozen), func(i int) (*core.Shard, error) {
		if i < nPrim {
			sh, err := core.UnmarshalShard(wire.Primaries[i], med)
			if err != nil {
				return nil, fmt.Errorf("store: load primary %d: %w", i, err)
			}
			return sh, nil
		}
		if wire.Frozen[i-nPrim] == nil {
			return nil, nil // sealed raw generation, reconstructed below
		}
		sh, err := core.UnmarshalShard(wire.Frozen[i-nPrim], med)
		if err != nil {
			return nil, fmt.Errorf("store: load frozen %d: %w", i-nPrim, err)
		}
		return sh, nil
	})
	if err != nil {
		return nil, err
	}
	s.primaries = frags[:nPrim:nPrim]
	logByGen := make(map[int]rawGenWire, len(wire.RawGens)+1)
	for _, rg := range wire.RawGens {
		logByGen[rg.Gen] = rg
	}
	live := len(wire.Frozen) // the live log is the last generation
	logByGen[live] = rawGenWire{Nodes: wire.LogNodes, Edges: wire.LogEdges}
	s.gens = make([]fragment, live+1)
	for g := range s.gens {
		if g < live && frags[nPrim+g] != nil {
			s.gens[g] = fragment{shard: frags[nPrim+g]}
			continue
		}
		rg, ok := logByGen[g]
		if !ok {
			return nil, fmt.Errorf("store: load: raw generation %d missing", g)
		}
		log := logstore.New(nodeSchema, edgeSchema, med)
		for _, n := range rg.Nodes {
			if err := log.AddNode(n.ID, n.Props); err != nil {
				return nil, fmt.Errorf("store: load gen %d node %d: %w", g, n.ID, err)
			}
		}
		for _, e := range rg.Edges {
			if err := log.AddEdge(e); err != nil {
				return nil, fmt.Errorf("store: load gen %d edge: %w", g, err)
			}
		}
		s.gens[g] = fragment{log: log}
	}
	for _, id := range wire.DeletedNodes {
		s.deletedNodes[id] = true
	}
	for _, dw := range wire.DeletedPhys {
		if dw.Fragment < 0 || dw.Fragment >= len(frags) {
			return nil, fmt.Errorf("store: load: fragment index %d out of range", dw.Fragment)
		}
		if frags[dw.Fragment] == nil {
			continue // raw generations carry no positional marks
		}
		ref := shardEdgeRef{frags[dw.Fragment], dw.Src, dw.EType}
		m := make(map[int]bool, len(dw.Indexes))
		for _, i := range dw.Indexes {
			m[i] = true
		}
		s.deletedPhys[ref] = m
	}
	return s, nil
}

// SaveBytes is Save into a byte slice.
func (s *Store) SaveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
