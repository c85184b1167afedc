package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"zipg"
	"zipg/internal/bitutil"
	"zipg/internal/cluster"
	"zipg/internal/core"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/logstore"
	"zipg/internal/parallel"
	"zipg/internal/rpc"
	"zipg/internal/succinct"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
	"zipg/internal/workloads"
)

// ladderReps is how many times each rung repeats; the least time counts,
// since a unit cost can only be disturbed upwards.
const ladderReps = 3

// sink keeps the compiler from discarding a measured call's result.
var sink int

// least runs fn ladderReps times and returns the least duration it
// reports.
func least(fn func() time.Duration) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < ladderReps; r++ {
		best = min(best, fn())
	}
	return best
}

// unit times calls calls of fn, ladderReps times over, and returns the
// least ns per call.
func unit(calls int, fn func(i int)) float64 {
	return float64(least(func() time.Duration {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		return time.Since(t)
	})) / float64(calls)
}

// once times a single call in seconds, for rungs that are one long
// operation (builds, compaction, save, load).
func once(fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	return time.Since(t).Seconds(), err
}

const mib = float64(1 << 20)

// runLadder measures the unit cost of every layer from outside, through
// its exported functions, on structures built from the orkut-shaped
// dataset (the lb-small-shaped one for the write path). It runs on one
// goroutine with telemetry off except where a rung divides by a counter.
func runLadder(seed int64, sc scale) (map[string]float64, error) {
	m := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))
	// Four tiers of calls per repetition, by what one call costs.
	calls := sc.ladderCalls     // tens to hundreds of ns
	callsUs := calls/10 + 1     // up to ~50 µs
	callsSlow := calls/100 + 1  // ~100 µs
	callsMs := callsSlow/8 + 1  // a millisecond and more
	pick := func(n int) []int { // calls random indexes below n
		idx := make([]int, calls)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		return idx
	}

	orkut := datasetSpec(gen.RealWorld, sc.ladderBytes, seed).Generate()
	nodeSchema, edgeSchema, err := zipg.DeriveSchemas(zipg.GraphData{Nodes: orkut.Nodes, Edges: orkut.Edges})
	if err != nil {
		return nil, err
	}
	nodeFlat, _, _, err := layout.BuildNodeFile(orkut.Nodes, nodeSchema)
	if err != nil {
		return nil, err
	}
	n := len(nodeFlat)

	// bitutil: a vector of n sorted values below n has the shape of a Ψ
	// bucket of the NodeFile's suffix array.
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(n))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	mv, pv := bitutil.NewMonotoneVector(vals), bitutil.PackSlice(vals)
	at := pick(n)
	m["bitutil.monotone_get_ns"] = unit(calls, func(i int) { sink += int(mv.Get(at[i])) })
	m["bitutil.packed_get_ns"] = unit(calls, func(i int) { sink += int(pv.Get(at[i])) })
	m["bitutil.monotone_search_ns"] = unit(calls, func(i int) { sink += mv.SearchGE(0, n, uint64(at[i])) })

	// succinct: one store over the NodeFile bytes.
	var st *succinct.Store
	secs, _ := once(func() error { st = succinct.Build(nodeFlat, succinct.Options{SamplingRate: 32}); return nil })
	m["succinct.build_s_per_mb"] = secs / (float64(n) / mib)
	m["succinct.bytes_per_input_byte"] = float64(st.CompressedSize()) / float64(n)
	const extractLen = 512
	off := pick(n - extractLen)
	m["succinct.isa_lookup_ns"] = unit(calls, func(i int) { sink += st.LookupISA(at[i]) })
	m["succinct.sa_lookup_ns"] = unit(calls, func(i int) { sink += st.LookupSA(at[i]) })
	m["succinct.extract_ns_per_byte"] = unit(callsUs, func(i int) { sink += len(st.Extract(off[i], extractLen)) }) / extractLen
	telemetry.Enable()
	before := telemetry.TakeSnapshot()
	perExtract := unit(callsUs, func(i int) { sink += len(st.Extract(off[i], extractLen)) })
	steps := telemetry.Delta(before, telemetry.TakeSnapshot())["zipg_succinct_psi_steps_total"]
	telemetry.Disable()
	m["succinct.psi_step_ns"] = perExtract * float64(callsUs*ladderReps) / steps
	pids := orkut.PropertyIDs()
	patterns := make([][]byte, callsSlow)
	for i := range patterns {
		patterns[i] = []byte(orkut.SampleValue(rng, pids[rng.Intn(len(pids))]))
	}
	hits := 0
	perSearch := unit(callsSlow, func(i int) { hits += len(st.Search(patterns[i])) })
	m["succinct.search_us"] = perSearch / 1e3
	m["succinct.search_ns_per_hit"] = perSearch * float64(callsSlow*ladderReps) / float64(hits)

	// core + layout: one shard over the whole dataset.
	var sh *core.Shard
	secs, err = once(func() (err error) {
		sh, err = core.Build(orkut.Nodes, orkut.Edges, nodeSchema, edgeSchema, core.Options{SamplingRate: 32})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["core.build_s_per_mb"] = secs / (float64(sh.RawSize()) / mib)
	m["core.footprint_ratio"] = float64(sh.CompressedSize()) / float64(sh.RawSize())
	node := pick(orkut.NumNodes())
	edge := pick(orkut.NumEdges())
	m["layout.node_props_us"] = unit(callsUs, func(i int) {
		v, _ := sh.Nodes().GetProperties(int64(node[i]), nil)
		sink += len(v)
	}) / 1e3
	m["layout.edge_record_us"] = unit(callsUs, func(i int) {
		e := &orkut.Edges[edge[i]]
		ref, _ := sh.Edges().GetEdgeRecord(e.Src, e.Type)
		sink += ref.Count
	}) / 1e3
	// edge_data: 16 edges off each freshly located record, so the
	// record's one-off cache warm-up is spread as a reader would see it.
	const edgesPerRecord = 16
	refs := make([]layout.EdgeRecordRef, 2*callsSlow)
	edgesRead := 0
	var edgeErr error
	best := least(func() time.Duration {
		for i := range refs {
			e := &orkut.Edges[edge[i]]
			refs[i], _ = sh.Edges().GetEdgeRecord(e.Src, e.Type)
		}
		edgesRead = 0
		t := time.Now()
		for i := range refs {
			for j := 0; j < edgesPerRecord && j < refs[i].Count; j++ {
				d, err := sh.Edges().GetEdgeData(&refs[i], j)
				if err != nil {
					edgeErr = err
				}
				sink += int(d.Dst)
				edgesRead++
			}
		}
		return time.Since(t)
	})
	if edgeErr != nil {
		return nil, edgeErr
	}
	m["layout.edge_data_ns"] = float64(best) / float64(edgesRead)
	filters := make([]map[string]string, callsSlow)
	for i := range filters {
		pid := pids[rng.Intn(len(pids))]
		filters[i] = map[string]string{pid: orkut.SampleValue(rng, pid)}
	}
	m["layout.find_nodes_us"] = unit(callsSlow, func(i int) { sink += len(sh.Nodes().FindNodes(filters[i])) }) / 1e3

	// store, unfragmented, and the temporal engine on top of it.
	g, err := zipg.Compress(zipg.GraphData{Nodes: orkut.Nodes, Edges: orkut.Edges}, zipg.Options{NumShards: 4, SamplingRate: 32})
	if err != nil {
		return nil, err
	}
	assocRange := func(s *zipg.Graph, src graphapi.NodeID, etype graphapi.EdgeType) {
		rec, ok := s.Store().GetEdgeRecord(src, etype)
		for j := 0; ok && j < edgesPerRecord && j < rec.Count(); j++ {
			d, _ := rec.GetEdgeData(j) // j < Count()
			sink += int(d.Dst)
		}
	}
	m["store.obj_get_us"] = unit(callsUs, func(i int) {
		v, _ := g.Store().GetNodeProps(int64(node[i]), nil)
		sink += len(v)
	}) / 1e3
	m["store.assoc_range_us"] = unit(2*callsSlow, func(i int) {
		e := &orkut.Edges[edge[i]]
		assocRange(g, e.Src, e.Type)
	}) / 1e3
	const batch = 64
	ids := make([]graphapi.NodeID, batch)
	m["store.obj_get_batch64_us_per_rec"] = unit(callsUs/batch+1, func(i int) {
		for j := range ids {
			ids[j] = int64(node[(i*batch+j)%len(node)])
		}
		v, _ := g.Store().ObjGetBatch(ids)
		sink += len(v)
	}) / batch / 1e3
	eng := temporal.NewEngine(g.Store())
	m["temporal.count_in_window_us"] = unit(callsUs, func(i int) {
		e := &orkut.Edges[edge[i]]
		sink += eng.AssocCountInWindow(e.Src, e.Type, e.Timestamp-86400, e.Timestamp+86400)
	}) / 1e3
	g.Close()

	// logstore and the write path, on the low-compressibility dataset.
	lb := datasetSpec(gen.LinkBench, sc.ladderBytes, seed).Generate()
	lbNodeSchema, lbEdgeSchema, err := zipg.DeriveSchemas(zipg.GraphData{Nodes: lb.Nodes, Edges: lb.Edges})
	if err != nil {
		return nil, err
	}
	// Each repetition fills a fresh LogStore, nodes then edges.
	var ls *logstore.LogStore
	nAdd := min(calls, lb.NumNodes(), lb.NumEdges())
	bestNode, bestEdge := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < ladderReps; r++ {
		ls = logstore.New(lbNodeSchema, lbEdgeSchema, nil, 0)
		t := time.Now()
		for i := 0; i < nAdd && err == nil; i++ {
			err = ls.AddNode(lb.Nodes[i].ID, lb.Nodes[i].Props)
		}
		bestNode = min(bestNode, time.Since(t))
		t = time.Now()
		for i := 0; i < nAdd && err == nil; i++ {
			err = ls.AddEdge(lb.Edges[i])
		}
		bestEdge = min(bestEdge, time.Since(t))
		if err != nil {
			return nil, err
		}
	}
	m["logstore.add_node_ns"] = float64(bestNode) / float64(nAdd)
	m["logstore.add_edge_ns"] = float64(bestEdge) / float64(nAdd)
	m["logstore.node_props_ns"] = unit(calls, func(i int) {
		p, _ := ls.NodeProps(lb.Nodes[at[i]%nAdd].ID)
		sink += len(p)
	})
	m["logstore.edge_entries_ns"] = unit(calls, func(i int) {
		e := &lb.Edges[at[i]%nAdd]
		sink += len(ls.EdgeEntries(e.Src, e.Type))
	})

	// store, fragmented: the writes of a LinkBench prefix, one writer,
	// rollovers compressed in line, so the fragment state is the same on
	// every run of a seed.
	gl, err := zipg.Compress(zipg.GraphData{Nodes: lb.Nodes, Edges: lb.Edges},
		zipg.Options{NumShards: 4, SamplingRate: 32, LogStoreThreshold: sc.lbThreshold})
	if err != nil {
		return nil, err
	}
	defer gl.Close()
	lbOps := workloads.GenerateOps(lb, workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: seed}, calls)
	deleteOnlyAddedNodes(lbOps)
	var nodeNs, edgeNs time.Duration
	var nodeAppends, edgeAppends int
	for _, o := range lbOps {
		switch o.Kind {
		case workloads.OpObjAdd, workloads.OpObjUpdate:
			t := time.Now()
			err = gl.AppendNode(o.ID, o.Props)
			nodeNs += time.Since(t)
			nodeAppends++
		case workloads.OpAssocAdd:
			t := time.Now()
			err = gl.AppendEdge(o.Edge)
			edgeNs += time.Since(t)
			edgeAppends++
		case workloads.OpAssocDel, workloads.OpObjDel, workloads.OpAssocUpdate:
			_, err = workloads.Execute(gl, o)
		}
		if err != nil {
			return nil, err
		}
	}
	m["store.append_node_us"] = float64(nodeNs) / float64(max(nodeAppends, 1)) / 1e3
	m["store.append_edge_us"] = float64(edgeNs) / float64(max(edgeAppends, 1)) / 1e3
	m["store.obj_get_frag_us"] = unit(callsUs, func(i int) {
		v, _ := gl.Store().GetNodeProps(lbOps[i].ID, nil)
		sink += len(v)
	}) / 1e3
	m["store.assoc_range_frag_us"] = unit(2*callsSlow, func(i int) { assocRange(gl, lbOps[i].ID, lbOps[i].AType) }) / 1e3
	rawMB := float64(gl.RawSize()) / mib
	if secs, err = once(gl.Compact); err != nil {
		return nil, err
	}
	m["store.compact_s_per_mb"] = secs / rawMB
	var saved bytes.Buffer
	if secs, err = once(func() error { return gl.Save(&saved) }); err != nil {
		return nil, err
	}
	m["store.save_s_per_mb"] = secs / rawMB
	if secs, err = once(func() error {
		loaded, err := zipg.Load(bytes.NewReader(saved.Bytes()), nil)
		if err == nil {
			loaded.Close()
		}
		return err
	}); err != nil {
		return nil, err
	}
	m["store.load_s_per_mb"] = secs / rawMB

	const tasks = 1024
	m["parallel.map_overhead_ns_per_task"] = unit(callsSlow, func(int) {
		sink += len(parallel.Map("bench.ladder", tasks, func(i int) int { return i }))
	}) / tasks

	if err := rpcRungs(m, 2*callsSlow); err != nil {
		return nil, err
	}

	// cluster: the same three reads through one client of a loopback
	// cluster, one call in flight.
	c, err := cluster.Launch(orkut.Nodes, orkut.Edges, nodeSchema, edgeSchema,
		cluster.LaunchConfig{NumServers: 2, ShardsPerServer: 2, SamplingRate: 32})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cl, err := c.Client()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	m["cluster.obj_get_us"] = unit(callsSlow, func(i int) {
		v, _ := cl.GetNodeProperty(int64(node[i]), nil)
		sink += len(v)
	}) / 1e3
	var callErr error
	m["cluster.assoc_range_us"] = unit(callsMs, func(i int) {
		e := &orkut.Edges[edge[i]]
		res, err := workloads.TAO{S: cl}.AssocRange(e.Src, e.Type, 0, edgesPerRecord)
		if err != nil {
			callErr = err
		}
		sink += len(res)
	}) / 1e3
	if callErr != nil {
		return nil, callErr
	}
	m["cluster.neighbors_filtered_us"] = unit(callsMs, func(i int) {
		sink += len(cl.GetNeighborIDs(int64(node[i]), graphapi.WildcardType, filters[i]))
	}) / 1e3

	telemetry.Enable()
	prev := telemetry.SetSpanSampling(1)
	m["telemetry.span_ns"] = unit(calls, func(int) { telemetry.StartSpan("bench.ladder").End() })
	telemetry.SetSpanSampling(prev)
	telemetry.Disable()
	telemetry.ResetSpans()
	return m, nil
}

// rpcRungs measures the wire path alone: an rpc.Server of its own on
// loopback whose handlers do nothing, one call in flight.
func rpcRungs(m map[string]float64, calls int) error {
	srv := rpc.NewServer()
	srv.Handle("Nop", func(context.Context, []byte) (any, error) { return true, nil })
	srv.Handle("Echo", func(_ context.Context, args []byte) (any, error) {
		var payload []byte
		err := rpc.DecodeArgs(args, &payload)
		return payload, err
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	var callErr error
	nop := func(int) {
		if err := cl.Call("Nop", true, nil); err != nil {
			callErr = err
		}
	}
	m["rpc.empty_call_us"] = unit(calls, nop) / 1e3
	payload, reply := make([]byte, 1024), []byte(nil)
	m["rpc.call_1k_us"] = unit(calls, func(int) {
		if err := cl.Call("Echo", payload, &reply); err != nil {
			callErr = err
		}
	}) / 1e3

	// Allocations and bytes are counts, so one repetition is exact
	// enough. The frame counters only move with telemetry on; span
	// recording stays off so no trace header rides the frames, and a call
	// before the window takes the one span the recorder samples at its
	// very first tick. The "read" direction is counted before a call
	// returns (the "write" count of the reply races with the return);
	// every frame is read once, so it is the same total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < calls; i++ {
		nop(i)
	}
	runtime.ReadMemStats(&ms)
	m["rpc.allocs_per_call"] = float64(ms.Mallocs-mallocs) / float64(calls)
	telemetry.Enable()
	prev := telemetry.SetSpanSampling(1 << 30)
	nop(0)
	before := telemetry.TakeSnapshot()
	for i := 0; i < calls; i++ {
		nop(i)
	}
	moved := telemetry.Delta(before, telemetry.TakeSnapshot())[frameBytesRead]
	telemetry.SetSpanSampling(prev)
	telemetry.Disable()
	m["rpc.bytes_per_empty_call"] = moved / float64(calls)
	if callErr != nil {
		return fmt.Errorf("rpc rungs: %w", callErr)
	}
	return nil
}
