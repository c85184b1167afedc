package store

import (
	"sort"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/parallel"
	"zipg/internal/telemetry"
)

// Batch reads. A batch is the scalar read of every request, fanned out
// on the shared pool in chunks: each request takes the scalar path whole
// — its own overlay snapshot, its own record walk — so a batch is exactly
// a scalar loop, and is faster than one only by the cores it finds idle.
// Results are positional.

var (
	mBatchRequests = telemetry.NewCounterL("zipg_batch_requests_total", `layer="store"`,
		"Items requested through batch reads, by layer.")
	mBatchRecords = telemetry.NewCounter("zipg_batch_records_total",
		"Records resolved (found) by store-level batch reads.")
)

// batchChunk is how many requests one fan-out task answers: enough reads
// (≈ 20–50 µs each) to amortize handing a task to a helper, few enough
// that a batch of 64 still splits over every core.
const batchChunk = 8

// fanBatch runs read(0) … read(n-1), batchChunk consecutive requests to a
// task.
func fanBatch(layer string, n int, read func(i int)) {
	if telemetry.Enabled() {
		mBatchRequests.Add(int64(n))
	}
	parallel.Do(layer, (n+batchChunk-1)/batchChunk, func(c int) {
		for i := c * batchChunk; i < min(n, (c+1)*batchChunk); i++ {
			read(i)
		}
	})
}

// getNodePropsBatch answers GetNodeProps(id, propertyIDs) for every id.
// Shared by ObjGetBatch and NodeMatchesBatch.
func (s *Store) getNodePropsBatch(ids []layout.NodeID, propertyIDs []string) ([][]string, []bool) {
	vals := make([][]string, len(ids))
	oks := make([]bool, len(ids))
	fanBatch("store.batch_node_props", len(ids), func(i int) {
		vals[i], oks[i] = s.getNodeProps(ids[i], propertyIDs, nil)
	})
	if telemetry.Enabled() {
		var found int64
		for _, ok := range oks {
			if ok {
				found++
			}
		}
		mBatchRecords.Add(found)
	}
	return vals, oks
}

// ObjGetBatch answers GetNodeProps(id, nil) — TAO's obj_get, all
// properties in schema order — for every id. Results are positional;
// absent or deleted IDs yield (nil, false), exactly like a scalar loop.
func (s *Store) ObjGetBatch(ids []layout.NodeID) ([][]string, []bool) {
	return s.getNodePropsBatch(ids, nil)
}

// NodeMatchesBatch reports, for every id, whether the node exists and
// currently has every given property value — the batched form of
// HasNode(id) && NodeMatches(id, props), which is the per-candidate
// check the cluster MatchBatch handler and the aggregator's local
// subquery run. Empty props reduces to a liveness check.
func (s *Store) NodeMatchesBatch(ids []layout.NodeID, props map[string]string) []bool {
	pids := make([]string, 0, len(props))
	for pid := range props {
		pids = append(pids, pid)
	}
	sort.Strings(pids)
	vals, oks := s.getNodePropsBatch(ids, pids)
	out := make([]bool, len(ids))
	for i := range ids {
		if !oks[i] {
			continue
		}
		match := true
		for k, pid := range pids {
			if vals[i][k] != props[pid] {
				match = false
				break
			}
		}
		out[i] = match
	}
	return out
}

// AssocRangeBatch answers TAO assoc_range for every request: per request
// ReadEdges by its TimeOrder query, nil where the record does not
// exist. The error reported is the lowest-index one.
func (s *Store) AssocRangeBatch(reqs []graphapi.AssocRangeReq) ([][]layout.EdgeData, error) {
	out, err := fanReads("store.assoc_range_batch", len(reqs), func(i int) ([]layout.EdgeData, error) {
		return s.assocRangeScalar(reqs[i])
	})
	if err == nil && telemetry.Enabled() {
		var found int64
		for _, data := range out {
			if data != nil {
				found++
			}
		}
		mBatchRecords.Add(found)
	}
	return out, err
}

// fanReads runs read(0) … read(n-1) by fanBatch and returns their edges,
// positional, or the lowest-index error.
func fanReads(layer string, n int, read func(i int) ([]layout.EdgeData, error)) ([][]layout.EdgeData, error) {
	out := make([][]layout.EdgeData, n)
	errs := make([]error, n)
	fanBatch(layer, n, func(i int) { out[i], errs[i] = read(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// assocRangeScalar is one assoc_range read (Algorithm 1).
func (s *Store) assocRangeScalar(req graphapi.AssocRangeReq) ([]layout.EdgeData, error) {
	return s.ReadEdges(req.ID, req.Type, graphapi.ByOrder(req.Idx, req.Limit))
}
