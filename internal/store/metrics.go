package store

import "zipg/internal/telemetry"

// Telemetry series for the single-machine store. Instances are resolved
// once at init so the hot path never does a registry lookup; every
// mutator is a no-op while telemetry is disabled (see package
// telemetry).
const (
	helpStoreOps     = "Store operations executed, by Table 1 op."
	helpStoreLatency = "Store operation latency in nanoseconds, by op."
)

var (
	mOpGetNodeProps  = telemetry.NewCounterL("zipg_store_ops_total", `op="get_node_props"`, helpStoreOps)
	mOpNeighborIDs   = telemetry.NewCounterL("zipg_store_ops_total", `op="get_neighbor_ids"`, helpStoreOps)
	mOpFindNodes     = telemetry.NewCounterL("zipg_store_ops_total", `op="get_node_ids"`, helpStoreOps)
	mOpFindEdges     = telemetry.NewCounterL("zipg_store_ops_total", `op="find_edges"`, helpStoreOps)
	mOpGetEdgeRecord = telemetry.NewCounterL("zipg_store_ops_total", `op="get_edge_record"`, helpStoreOps)
	mOpAppendNode    = telemetry.NewCounterL("zipg_store_ops_total", `op="append_node"`, helpStoreOps)
	mOpAppendEdge    = telemetry.NewCounterL("zipg_store_ops_total", `op="append_edge"`, helpStoreOps)
	mOpDeleteNode    = telemetry.NewCounterL("zipg_store_ops_total", `op="delete_node"`, helpStoreOps)
	mOpDeleteEdges   = telemetry.NewCounterL("zipg_store_ops_total", `op="delete_edges"`, helpStoreOps)

	mLatGetNodeProps = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_node_props"`, helpStoreLatency)
	mLatNeighborIDs  = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_neighbor_ids"`, helpStoreLatency)
	mLatFindNodes    = telemetry.NewHistogramL("zipg_store_latency_ns", `op="get_node_ids"`, helpStoreLatency)
	mLatFindEdges    = telemetry.NewHistogramL("zipg_store_latency_ns", `op="find_edges"`, helpStoreLatency)

	// mFragmentsPerRead is the paper's fanned-updates quantity (§3.5,
	// Figures 10-11): how many fragments (primary + frozen generations +
	// LogStore) a read faced — the ones a node-property read consulted
	// before it hit (span-sampled reads), and the pieces of every
	// EdgeRecord handed out.
	mFragmentsPerRead = telemetry.NewHistogram("zipg_store_fragments_per_read",
		"Fragments consulted per node-property read, and pieces per edge-record read (fanned updates).")

	// mSuccinctBytes counts property/edge bytes materialized out of
	// Succinct-compressed shards (not LogStore hits).
	mSuccinctBytes = telemetry.NewCounter("zipg_store_succinct_bytes_total",
		"Bytes extracted from Succinct-compressed shards.")

	// Write path (Store.commit). The two counters keep the names they
	// had under the commit queue — the benchmark reads their ratio,
	// records per commit.
	mCommits = telemetry.NewCounter("zipg_group_commit_batches_total",
		"Commits published (one store-lock acquisition each).")
	mCommitRecords = telemetry.NewCounter("zipg_group_commit_records_total",
		"Records published by commits (an edge, plus each endpoint record it created).")
	// mWriteStallNs is what a commit costs its writer: the wait for the
	// store lock plus the critical section.
	mWriteStallNs = telemetry.NewHistogram("zipg_write_stall_ns",
		"Per-commit stall from lock request to visibility, in nanoseconds.")
	// mCompactionPauseNs is the time a build held the store write lock —
	// a tier merge's or compaction's snapshot, and every build's swap —
	// the only windows where queries and writes actually stall. The
	// build, and the marking of deletes recorded during it, run outside
	// the lock and do not count.
	mCompactionPauseNs = telemetry.NewHistogram("zipg_compaction_pause_ns",
		"Store-lock hold time of a build's snapshot and swap, in nanoseconds.")

	mRollovers = telemetry.NewCounter("zipg_store_rollovers_total",
		"LogStore freezes into compressed shards.")
	mRolloverNs = telemetry.NewHistogram("zipg_store_rollover_ns",
		"LogStore freeze (compress) duration in nanoseconds.")
	// mCompactions counts merges of generations: tier merges and full
	// compactions alike.
	mCompactions = telemetry.NewCounter("zipg_store_compactions_total",
		"Generation merges: tier merges and full store compactions.")
	mCompactionNs = telemetry.NewHistogram("zipg_store_compaction_ns",
		"Tier merge or full compaction duration in nanoseconds.")
)
