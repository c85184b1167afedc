package bench

import (
	"fmt"
	"time"

	"zipg"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/layout"
	"zipg/internal/memsim"
	"zipg/internal/store"
	"zipg/internal/workloads"
)

// The ablation experiments quantify the design choices DESIGN.md calls
// out: Succinct's sampling-rate knob, the fanned-updates read path, the
// LogStore rollover threshold, and the shard count. They have no direct
// counterpart figure in the paper (the paper states the trade-offs in
// §3.1 and §3.5); the benches verify each trade-off exists in this
// implementation and measure its slope.

// AblationAlpha sweeps Succinct's sampling rate α: storage shrinks
// roughly as 2n·log(n)/α while random-access latency grows ∝ α (§3.1).
func AblationAlpha(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	d, err := datasetByName("orkut", opts.BaseBytes)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Title:   "Ablation: Succinct sampling rate α (space vs latency, §3.1)",
		Headers: []string{"alpha", "footprint/raw", "obj_get-KOps", "assoc_range-KOps"},
		Notes:   []string{"expected: footprint falls and latency rises as alpha grows"},
	}
	for _, alpha := range []int{4, 8, 16, 32, 64, 128} {
		clock := &memsim.Clock{}
		med := memsim.NewMedium(clock, memsim.Config{Budget: -1})
		g, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{
			NumShards: 4, SamplingRate: alpha, Medium: med,
		})
		if err != nil {
			return nil, err
		}
		sys := &System{Name: fmt.Sprintf("zipg-a%d", alpha), Store: g, Med: med, Clock: clock}
		var objMix, rangeMix workloads.Frequencies
		objMix[workloads.OpObjGet] = 1
		rangeMix[workloads.OpAssocRange] = 1
		objOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: objMix, Seed: 2001}, opts.Ops)
		rangeOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: rangeMix, Seed: 2002}, opts.Ops)
		objT := sys.Throughput(len(objOps), func(i int) { workloads.Execute(g, objOps[i]) })
		rangeT := sys.Throughput(len(rangeOps), func(i int) { workloads.Execute(g, rangeOps[i]) })
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(alpha),
			ratioStr(med.Footprint(), d.RawBytes),
			kops(objT), kops(rangeT),
		})
	}
	return r, nil
}

// AblationFanned compares the fanned-updates read path against the
// broadcast strawman of §3.5 (consult every fragment) after a burst of
// updates has fragmented the store.
func AblationFanned(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	d, err := datasetByName("lb-small", opts.BaseBytes)
	if err != nil {
		return nil, err
	}
	ns, es, err := deriveSchemas(d)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Title:   "Ablation: fanned updates vs broadcast reads (§3.5)",
		Headers: []string{"mode", "fragments", "obj_get-KOps", "assoc_range-KOps"},
		Notes: []string{
			"expected: after many rollovers, pointer-guided reads beat consulting every fragment",
		},
	}
	writeOps := workloads.GenerateOps(d, workloads.MixConfig{
		Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 2101,
	}, opts.Ops*4)
	var objMix, rangeMix workloads.Frequencies
	objMix[workloads.OpObjGet] = 1
	rangeMix[workloads.OpAssocRange] = 1
	objOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: objMix, Seed: 2102}, opts.Ops)
	rangeOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: rangeMix, Seed: 2103}, opts.Ops)
	type mode struct {
		name         string
		st           *store.Store
		sys          *System
		objT, rangeT float64
	}
	modes := []*mode{{name: "fanned-updates"}, {name: "broadcast"}}
	for _, m := range modes {
		m.st, err = store.New(d.Nodes, d.Edges, ns, es, store.Config{
			NumShards:            4,
			SamplingRate:         32,
			LogStoreThreshold:    opts.BaseBytes / 16,
			DisableFannedUpdates: m.name == "broadcast",
		})
		if err != nil {
			return nil, err
		}
		// Fragment the store with the write-heavy mix.
		for _, op := range writeOps {
			if _, err := workloads.Execute(storeAdapter{m.st}, op); err != nil {
				return nil, err
			}
		}
		m.sys = &System{Name: m.name, Store: storeAdapter{m.st}, Med: memsim.Unlimited(), Clock: &memsim.Clock{}}
	}
	// The modes differ by what it costs to consult a fragment that holds
	// nothing for the node — an index miss per compressed fragment, a map
	// miss per log — which is a fraction of a read. So the two are
	// measured as a pair: passes alternate between them, and each keeps
	// its best, which leaves the host's drift and the noise of any one
	// pass out of the comparison.
	for pass := 0; pass < 25; pass++ {
		for _, m := range modes {
			g := m.sys.Store
			m.objT = max(m.objT, m.sys.Throughput(len(objOps), func(i int) { workloads.Execute(g, objOps[i]) }))
			m.rangeT = max(m.rangeT, m.sys.Throughput(len(rangeOps), func(i int) { workloads.Execute(g, rangeOps[i]) }))
		}
	}
	for _, m := range modes {
		r.Rows = append(r.Rows, []string{
			m.name, fmt.Sprint(m.st.NumFragments()), kops(m.objT), kops(m.rangeT),
		})
	}
	return r, nil
}

// AblationLogStore sweeps the LogStore rollover threshold: smaller
// thresholds mean more fragments (worse reads, §3.5's fragmentation
// cost) but less data in the uncompressed log (smaller footprint).
func AblationLogStore(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	d, err := datasetByName("lb-small", opts.BaseBytes)
	if err != nil {
		return nil, err
	}
	ns, es, err := deriveSchemas(d)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Title:   "Ablation: LogStore rollover threshold (§3.5)",
		Headers: []string{"threshold", "rollovers", "fragments", "write-KOps", "read-KOps"},
		Notes:   []string{"expected: small thresholds fragment reads; huge thresholds keep more data uncompressed"},
	}
	for _, div := range []int64{64, 16, 4, 1} {
		st, err := store.New(d.Nodes, d.Edges, ns, es, store.Config{
			NumShards:         4,
			SamplingRate:      32,
			LogStoreThreshold: opts.BaseBytes / div,
		})
		if err != nil {
			return nil, err
		}
		g := storeAdapter{st}
		sys := &System{Name: "zipg", Store: g, Med: memsim.Unlimited(), Clock: &memsim.Clock{}}
		var writeMix, readMix workloads.Frequencies
		writeMix[workloads.OpAssocAdd] = 1
		readMix[workloads.OpAssocRange] = 1
		writeOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: writeMix, AccessSkew: 1.4, Seed: 2201}, opts.Ops*2)
		start := time.Now()
		for _, op := range writeOps {
			if _, err := workloads.Execute(g, op); err != nil {
				return nil, err
			}
		}
		writeT := float64(len(writeOps)) / time.Since(start).Seconds()
		readOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: readMix, AccessSkew: 1.4, Seed: 2202}, opts.Ops)
		readT := sys.Throughput(len(readOps), func(i int) { workloads.Execute(g, readOps[i]) })
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(opts.BaseBytes / div), fmt.Sprint(st.Rollovers()),
			fmt.Sprint(st.NumFragments()), kops(writeT), kops(readT),
		})
	}
	return r, nil
}

// AblationShards sweeps the shard count: node-local queries are
// unaffected but get_node_ids must search every shard (§4.1,
// footnote 5).
func AblationShards(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	d, err := datasetByName("orkut", opts.BaseBytes)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Title:   "Ablation: shard count (node-local vs all-shard queries, §4.1)",
		Headers: []string{"shards", "obj_get-KOps", "get_node_ids-KOps"},
		Notes:   []string{"expected: obj_get roughly flat; get_node_ids degrades with shard count"},
	}
	gsOps := workloads.GenerateGSOps(d, 2301, opts.Ops)
	searchOps := workloads.FilterGSKind(gsOps, workloads.KindGS3)
	for _, shards := range []int{1, 2, 4, 8, 16} {
		clock := &memsim.Clock{}
		med := memsim.NewMedium(clock, memsim.Config{Budget: -1})
		g, err := zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{
			NumShards: shards, SamplingRate: 32, Medium: med,
		})
		if err != nil {
			return nil, err
		}
		sys := &System{Name: fmt.Sprintf("zipg-%d", shards), Store: g, Med: med, Clock: clock}
		var objMix workloads.Frequencies
		objMix[workloads.OpObjGet] = 1
		objOps := workloads.GenerateOps(d, workloads.MixConfig{Mix: objMix, Seed: 2302}, opts.Ops)
		objT := sys.Throughput(len(objOps), func(i int) { workloads.Execute(g, objOps[i]) })
		searchT := sys.Throughput(len(searchOps), func(i int) {
			workloads.ExecuteGS(g, searchOps[i], false)
		})
		r.Rows = append(r.Rows, []string{fmt.Sprint(shards), kops(objT), kops(searchT)})
	}
	return r, nil
}

// storeAdapter lifts store.Store to the shared interface for the
// ablations that need store-level switches.
type storeAdapter struct{ s *store.Store }

func (a storeAdapter) GetNodeProperty(id graphapi.NodeID, pids []string) ([]string, bool) {
	if len(pids) == 0 {
		vals, ok := a.s.GetNodeProps(id, nil)
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
	return a.s.GetNodeProps(id, pids)
}

func (a storeAdapter) GetNodeIDs(props map[string]string) []graphapi.NodeID {
	return a.s.FindNodes(props)
}

func (a storeAdapter) GetNeighborIDs(id graphapi.NodeID, etype graphapi.EdgeType, props map[string]string) []graphapi.NodeID {
	return a.s.NeighborIDs(id, etype, props)
}

func (a storeAdapter) GetEdgeRecord(id graphapi.NodeID, etype graphapi.EdgeType) (graphapi.EdgeRecord, bool) {
	r, ok := a.s.GetEdgeRecord(id, etype)
	if !ok {
		return nil, false
	}
	return storeRecord{r}, true
}

func (a storeAdapter) GetEdgeRecords(id graphapi.NodeID) []graphapi.EdgeRecord {
	rs := a.s.GetEdgeRecords(id)
	out := make([]graphapi.EdgeRecord, len(rs))
	for i, r := range rs {
		out[i] = storeRecord{r}
	}
	return out
}

func (a storeAdapter) AppendNode(id graphapi.NodeID, props map[string]string) error {
	return a.s.AppendNode(id, props)
}

func (a storeAdapter) AppendEdge(e graphapi.Edge) error { return a.s.AppendEdge(e) }

func (a storeAdapter) DeleteNode(id graphapi.NodeID) error {
	a.s.DeleteNode(id)
	return nil
}

func (a storeAdapter) DeleteEdges(src graphapi.NodeID, etype graphapi.EdgeType, dst graphapi.NodeID) (int, error) {
	return a.s.DeleteEdges(src, etype, dst), nil
}

type storeRecord struct{ r *store.EdgeRecord }

func (r storeRecord) Count() int { return r.r.Count() }

func (r storeRecord) Range(tLo, tHi int64) (int, int) {
	tLo, tHi = graphapi.TimeBounds(tLo, tHi)
	return r.r.GetEdgeRange(tLo, tHi)
}

func (r storeRecord) Data(i int) (graphapi.EdgeData, error) { return r.r.GetEdgeData(i) }

func (r storeRecord) Destinations() []graphapi.NodeID { return r.r.Destinations() }

// deriveSchemas builds node/edge schemas for a generated dataset.
func deriveSchemas(d *gen.Dataset) (*layout.PropertySchema, *layout.PropertySchema, error) {
	return zipg.DeriveSchemas(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges})
}
