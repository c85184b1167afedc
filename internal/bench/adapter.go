package bench

import (
	"zipg/internal/graphapi"
	"zipg/internal/store"
)

// storeAdapter lifts store.Store to the shared interface for the
// figures that drive the store itself (see writeSystem).
type storeAdapter struct{ *store.Store }

func (a storeAdapter) GetNodeProperty(id graphapi.NodeID, pids []string) ([]string, bool) {
	if len(pids) == 0 {
		vals, ok := a.Store.GetNodeProps(id, nil)
		if !ok {
			return nil, false
		}
		out := make([]string, 0, len(vals))
		for _, v := range vals {
			if v != "" {
				out = append(out, v)
			}
		}
		return out, true
	}
	return a.Store.GetNodeProps(id, pids)
}

func (a storeAdapter) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	return a.Store.FindNodes(props)
}

func (a storeAdapter) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	return a.Store.NeighborIDs(id, etype, props)
}

func (a storeAdapter) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	r, ok := a.Store.GetEdgeRecord(id, etype)
	if !ok {
		return nil, false
	}
	return storeRecord{r}, true
}

func (a storeAdapter) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	rs := a.Store.GetEdgeRecords(id)
	out := make([]graphapi.EdgeRecord, len(rs))
	for i, r := range rs {
		out[i] = storeRecord{r}
	}
	return out
}

func (a storeAdapter) DeleteNode(id graphapi.NodeID) error {
	a.Store.DeleteNode(id)
	return nil
}

func (a storeAdapter) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	return a.Store.DeleteEdges(src, etype, dst), nil
}

type storeRecord struct{ r *store.EdgeRecord }

func (r storeRecord) Count() int { return r.r.Count() }

func (r storeRecord) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	return r.r.GetEdgeRange(tLo, tHi)
}

func (r storeRecord) Data(i int) (graphapi.EdgeData, error) { return r.r.GetEdgeData(i) }

func (r storeRecord) Destinations() []graphapi.NodeID { return r.r.Destinations() }
