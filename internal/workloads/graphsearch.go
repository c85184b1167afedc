package workloads

import (
	"math/rand"

	"zipg/internal/gen"
	"zipg/internal/graphapi"
)

// Graph Search queries (Table 3). p1 and p2 are node properties; id and
// etype are a node ID and an edge type. Each maps to the store API
// exactly as the table specifies.

// GS1 returns all friends of a node: get_neighbor_ids(id, *, *).
func GS1(s graphapi.Store, id graphapi.NodeID) []graphapi.NodeID {
	return s.GetNeighborIDs(id, graphapi.WildcardType, nil)
}

// GS2 returns a node's friends with a given property:
// get_neighbor_ids(id, *, {p1}).
func GS2(s graphapi.Store, id graphapi.NodeID, p1 map[string]string) []graphapi.NodeID {
	return s.GetNeighborIDs(id, graphapi.WildcardType, p1)
}

// GS3 returns nodes matching two properties: get_node_ids({p1, p2}).
func GS3(s graphapi.Store, props map[string]string) []graphapi.NodeID {
	return s.GetNodeIDs(props)
}

// GS4 returns a node's neighbors along one type:
// get_neighbor_ids(id, type, *).
func GS4(s graphapi.Store, id graphapi.NodeID, etype graphapi.EdgeType) []graphapi.NodeID {
	return s.GetNeighborIDs(id, etype, nil)
}

// GS5 returns all data on a node's typed edges: assoc_range(id, type,
// 0, *).
func GS5(s graphapi.Store, id graphapi.NodeID, etype graphapi.EdgeType) []graphapi.EdgeData {
	rec, ok := s.GetEdgeRecord(id, etype)
	if !ok {
		return nil
	}
	out := make([]graphapi.EdgeData, 0, rec.Count())
	for i := 0; i < rec.Count(); i++ {
		e, err := rec.Data(i)
		if err != nil {
			break
		}
		out = append(out, e)
	}
	return out
}

// GS2Join executes GS2 as a join (Appendix B.3): all neighbors ∩ all
// nodes with the property. The cardinalities of the two sides are what
// make this slower than the filter plan.
func GS2Join(s graphapi.Store, id graphapi.NodeID, p1 map[string]string) []graphapi.NodeID {
	return intersect(s.GetNeighborIDs(id, graphapi.WildcardType, nil), s.GetNodeIDs(p1))
}

// GS3Join executes GS3 as a join of the two single-property result sets.
func GS3Join(s graphapi.Store, p1, p2 map[string]string) []graphapi.NodeID {
	return intersect(s.GetNodeIDs(p1), s.GetNodeIDs(p2))
}

// intersect merges two ascending ID lists.
func intersect(a, b []graphapi.NodeID) []graphapi.NodeID {
	var out []graphapi.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// GSKind enumerates the five Graph Search queries.
type GSKind int

// The five queries of Table 3.
const (
	KindGS1 GSKind = iota
	KindGS2
	KindGS3
	KindGS4
	KindGS5
	numGSKinds
)

// String returns the query name.
func (k GSKind) String() string {
	return [...]string{"GS1", "GS2", "GS3", "GS4", "GS5"}[k]
}

// GSOp is one pre-generated Graph Search query ("all queries occur in
// equal proportion in the workload", Table 3).
type GSOp struct {
	Kind  GSKind
	ID    graphapi.NodeID
	EType graphapi.EdgeType
	P1    map[string]string
	P2    map[string]string
}

// GenerateGSOps pre-generates n Graph Search queries over the dataset.
func GenerateGSOps(d *gen.Dataset, seed int64, n int) []GSOp {
	rng := rand.New(rand.NewSource(seed))
	pids := d.PropertyIDs()
	nTypes := d.Spec.NumEdgeTypes
	if nTypes <= 0 {
		nTypes = 5
	}
	sampleProp := func() map[string]string {
		pid := pids[rng.Intn(len(pids))]
		return map[string]string{pid: d.SampleValue(rng, pid)}
	}
	ops := make([]GSOp, n)
	for i := range ops {
		op := GSOp{
			Kind:  GSKind(i % int(numGSKinds)), // equal proportion
			ID:    int64(rng.Intn(d.NumNodes())),
			EType: int64(rng.Intn(nTypes)),
			P1:    sampleProp(),
		}
		op.P2 = sampleProp()
		for samePropertyID(op.P1, op.P2) {
			op.P2 = sampleProp()
		}
		ops[i] = op
	}
	// Shuffle so kinds interleave.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func samePropertyID(a, b map[string]string) bool {
	for k := range a {
		if _, ok := b[k]; ok {
			return true
		}
	}
	return false
}

// ExecuteGS runs one Graph Search query, with joins if useJoins is set
// (GS2/GS3 only; the others have no join plan). Returns the result
// cardinality.
func ExecuteGS(s graphapi.Store, op GSOp, useJoins bool) int {
	switch op.Kind {
	case KindGS1:
		return len(GS1(s, op.ID))
	case KindGS2:
		if useJoins {
			return len(GS2Join(s, op.ID, op.P1))
		}
		return len(GS2(s, op.ID, op.P1))
	case KindGS3:
		props := map[string]string{}
		for k, v := range op.P1 {
			props[k] = v
		}
		for k, v := range op.P2 {
			props[k] = v
		}
		if useJoins {
			return len(GS3Join(s, op.P1, op.P2))
		}
		return len(GS3(s, props))
	case KindGS4:
		return len(GS4(s, op.ID, op.EType))
	case KindGS5:
		return len(GS5(s, op.ID, op.EType))
	}
	return 0
}

// FilterGSKind returns only the queries of one kind.
func FilterGSKind(ops []GSOp, kind GSKind) []GSOp {
	var out []GSOp
	for _, op := range ops {
		if op.Kind == kind {
			out = append(out, op)
		}
	}
	return out
}
