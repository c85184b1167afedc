package main

import (
	"fmt"

	"zipg"
	"zipg/internal/cluster"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/workloads"
)

// numClients is the closed-loop client count. It is fixed, not read from
// the machine, so a run means the same load everywhere.
const numClients = 2

// scale holds every size the benchmark uses. fullScale is what the
// driver runs; the smoke test substitutes a toy scale.
type scale struct {
	datasetBytes int64 // raw size of each workload's dataset
	ladderBytes  int64 // raw size of the ladder's structures
	opsDivisor   int   // divides each workload's op-sequence length
	sweepNodes   int   // nodes whose full payload is compared after the run
	setups       int   // set-ups per untraced run; setup_s is their median
	lbThreshold  int64 // LogStore rollover threshold on linkbench_local
	ladderCalls  int   // calls per ladder repetition for ns-scale rungs
	reconOps     int   // single-kind ops per reconciliation probe
}

// fullScale sizes what surrounds the timed window of one run (dataset
// generation, set-ups, warm-up, settle, oracle replay, sweep) to 10 to
// 20 s on 2 vCPUs; with a 25 s window that is what the driver's total
// budget allows per run.
var fullScale = scale{
	datasetBytes: 16 << 20,
	ladderBytes:  4 << 20,
	opsDivisor:   1,
	sweepNodes:   500,
	setups:       3,
	lbThreshold:  128 << 10,
	ladderCalls:  20_000,
	reconOps:     300,
}

// workload is one traffic mix against one deployment shape.
type workload struct {
	name    string
	kind    gen.Kind
	cluster bool // through a loopback cluster.Client instead of in-process
	mix     workloads.Frequencies
	skew    float64
	// ops is the length of the generated op sequence, sized so that one
	// pass takes 4 to 10 s at the commit that added the benchmark. An
	// untraced run cycles through it until its time is up; a traced run
	// makes exactly one pass.
	ops int
	// background turns on the small rollover threshold and the online
	// compaction worker, so writes pass through several rollover and
	// compaction cycles inside the timed window.
	background bool
}

// The three workloads. BENCHMARK.json records why each exists.
var allWorkloads = []workload{
	{name: "tao_local", kind: gen.RealWorld, mix: workloads.TAOMix, ops: 120_000},
	{name: "tao_cluster", kind: gen.RealWorld, mix: workloads.TAOMix, cluster: true, ops: 7_000},
	{name: "linkbench_local", kind: gen.LinkBench, mix: workloads.LinkBenchMix, skew: 1.4, background: true, ops: 30_000},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// datasetSpec returns the orkut-shaped or lb-small-shaped spec of
// gen.StandardSpecs at the given size, seeded from the run's seed.
func datasetSpec(kind gen.Kind, bytes, seed int64) gen.DatasetSpec {
	if kind == gen.LinkBench {
		return gen.DatasetSpec{Name: "lb-small", Kind: gen.LinkBench, TargetBytes: bytes, AvgDegree: 5, NumEdgeTypes: 5, ZipfS: 1.5, Seed: seed}
	}
	return gen.DatasetSpec{Name: "orkut", Kind: gen.RealWorld, TargetBytes: bytes, AvgDegree: 39, NumEdgeTypes: 5, Seed: seed}
}

// Op kinds reported per kind: the five TAO reads, and all TAO writes as
// one kind.
const (
	kindObjGet = iota
	kindAssocRange
	kindAssocGet
	kindAssocCount
	kindAssocTimeRange
	kindWrite
	numKinds
)

var kindNames = [numKinds]string{
	"obj_get", "assoc_range", "assoc_get", "assoc_count", "assoc_time_range", "write",
}

// op is one generated operation.
type op struct {
	kind int
	tao  workloads.Op
}

func (o *op) isWrite() bool { return o.kind == kindWrite }

// exec runs the op and returns its result cardinality, the one number
// the timed loop keeps per op.
func (o *op) exec(s graphapi.Store) (int, error) { return workloads.Execute(s, o.tao) }

func taoKind(k workloads.OpKind) int {
	switch k {
	case workloads.OpObjGet:
		return kindObjGet
	case workloads.OpAssocRange:
		return kindAssocRange
	case workloads.OpAssocGet:
		return kindAssocGet
	case workloads.OpAssocCount:
		return kindAssocCount
	case workloads.OpAssocTimeRange:
		return kindAssocTimeRange
	}
	return kindWrite
}

// generateOps builds the op sequence for a workload and deals it to the
// clients. An op goes to client (node ID mod numClients): every op reads
// or writes only its source node's data, so the clients' sequences never
// touch the same state and each op's result is fixed no matter how the
// two interleave.
func generateOps(w workload, d *gen.Dataset, seed int64, sc scale) [numClients][]op {
	var out [numClients][]op
	ops := workloads.GenerateOps(d, workloads.MixConfig{Mix: w.mix, AccessSkew: w.skew, Seed: seed}, w.ops/sc.opsDivisor)
	deleteOnlyAddedNodes(ops)
	for _, t := range ops {
		c := int(t.ID % numClients)
		out[c] = append(out[c], op{kind: taoKind(t.Kind), tao: t})
	}
	return out
}

// deleteOnlyAddedNodes is the one adjustment made to the generated ops:
// every obj_del is retargeted at the most recent node an obj_add of the
// sequence created and no obj_del has taken yet (a fresh, absent ID when
// there is none). A generated obj_del hits a dataset node, which later
// writes then re-create; the store and the reference graph disagree on
// what comes back when a compaction ran in between (the store has
// dropped the deleted node's edges for good, the reference restores
// them), so whether an answer matches would depend on background timing.
// Nodes the sequence added are touched by no other op, which keeps every
// op kind in the mix and every answer fixed.
func deleteOnlyAddedNodes(ops []workloads.Op) {
	var added []graphapi.NodeID
	fresh := graphapi.NodeID(1) << 40
	for i := range ops {
		switch t := &ops[i]; t.Kind {
		case workloads.OpObjAdd:
			added = append(added, t.ID)
		case workloads.OpObjDel:
			if len(added) == 0 {
				t.ID = fresh
				fresh++
				continue
			}
			t.ID = added[len(added)-1]
			added = added[:len(added)-1]
		}
	}
}

// system is one freshly set-up deployment under test.
type system struct {
	store     graphapi.Store
	graph     *zipg.Graph      // local workloads
	cluster   *cluster.Cluster // cluster workloads
	client    *cluster.Client
	footprint int64
	raw       int64
}

func (s *system) close() {
	if s.client != nil {
		s.client.Close()
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	if s.graph != nil {
		s.graph.Close()
	}
}

// setUp takes the generated in-memory dataset to a store (or cluster)
// that is ready to serve, with the client connected to every server.
func setUp(w workload, d *gen.Dataset, sc scale) (*system, error) {
	data := zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}
	if !w.cluster {
		opts := zipg.Options{NumShards: 4, SamplingRate: 32}
		if w.background {
			opts.LogStoreThreshold = sc.lbThreshold
			opts.BackgroundCompaction = true
			opts.CompactAfterRollovers = 3
		}
		g, err := zipg.Compress(data, opts)
		if err != nil {
			return nil, err
		}
		return &system{store: g, graph: g, footprint: g.CompressedFootprint(), raw: g.RawSize()}, nil
	}
	nodeSchema, edgeSchema, err := zipg.DeriveSchemas(data)
	if err != nil {
		return nil, err
	}
	const numServers = 2
	c, err := cluster.Launch(d.Nodes, d.Edges, nodeSchema, edgeSchema,
		cluster.LaunchConfig{NumServers: numServers, ShardsPerServer: 2, SamplingRate: 32})
	if err != nil {
		return nil, err
	}
	cl, err := c.Client()
	if err != nil {
		c.Close()
		return nil, err
	}
	s := &system{store: cl, cluster: c, client: cl}
	for _, srv := range c.Servers {
		s.footprint += srv.Store().CompressedFootprint()
		s.raw += srv.Store().RawSize()
	}
	// The client dials lazily; one read per server makes "connected"
	// part of set-up instead of part of the first timed ops.
	dialed := make(map[int]bool)
	for id := int64(0); len(dialed) < numServers && id < int64(d.NumNodes()); id++ {
		if o := cluster.OwnerOf(id, numServers); !dialed[o] {
			dialed[o] = true
			if _, ok := cl.GetNodeProperty(id, nil); !ok {
				s.close()
				return nil, fmt.Errorf("set-up: server %d does not serve node %d", o, id)
			}
		}
	}
	return s, nil
}
