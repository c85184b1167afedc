// Package bench regenerates every table and figure of the paper's
// evaluation (§5 and the appendices). Each figure is a spec in the
// ordered list Figures: the datasets it runs over (package gen), the
// systems it compares, the memory budget they run under (package
// memsim), how one row is measured (the workloads of package
// workloads), and the claims of the paper its table must bear out.
// Throughput is reported against wall-clock time plus simulated I/O
// stall time.
//
// # The memory model
//
// The paper's single-server experiments ran on 244 GB of RAM against
// datasets of 20/250/636 GB — a RAM-to-smallest-dataset ratio of ≈12.2.
// We preserve exactly that ratio: every system's medium gets a budget of
// 12.2× the base dataset size, so whichever system's footprint exceeds
// it spills to (simulated) SSD, reproducing Table 5's who-fits-in-memory
// matrix and the throughput cliffs of Figures 6–8 at megabyte scale.
//
// Reported numbers are KOps/s against (wall + simulated stall) time.
// Absolute values are not comparable with the paper's EC2 hardware; the
// shapes — who wins, by what factor, where the crossover happens — are
// what the claims check and EXPERIMENTS.md tracks.
package bench

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"zipg"
	"zipg/internal/baselines/kvstore"
	"zipg/internal/baselines/pointerstore"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/memsim"
	"zipg/internal/workloads"
)

// MemoryRatio is the server-RAM to base-dataset ratio (244 GB / 20 GB).
const MemoryRatio = 12.2

// Options configures an experiment run.
type Options struct {
	// BaseBytes is the size of the smallest dataset (Table 4's orkut);
	// the others scale 12.5x and 32x. Default 256 KiB (quick).
	BaseBytes int64
	// Ops is the number of operations per throughput measurement.
	// Default 2000.
	Ops int
	// Verbose prints progress while building.
	Verbose bool
}

func (o Options) withDefaults() Options {
	if o.BaseBytes <= 0 {
		o.BaseBytes = 256 << 10
	}
	if o.Ops <= 0 {
		o.Ops = 2000
	}
	return o
}

// SystemNames lists the compared systems in the paper's order.
var SystemNames = []string{"neo4j", "neo4j-tuned", "titan", "titan-c", "zipg"}

// System is one system under test with its simulated storage.
type System struct {
	Name  string
	Store graphapi.Store
	Med   *memsim.Medium
	Clock *memsim.Clock
	err   error // the first error an op measured on the system returned
}

// BuildSystem constructs one of SystemNames over a dataset on a medium
// with the given DRAM budget (bytes; <0 unlimited). zo sets zipg's shard
// count and α (zero: 4 and 32); the baselines ignore it.
func BuildSystem(name string, d *gen.Dataset, budget int64, zo zipg.Options) (*System, error) {
	clock := &memsim.Clock{}
	med := memsim.NewMedium(clock, memsim.Config{Budget: budget})
	sys := &System{Name: name, Med: med, Clock: clock}
	var err error
	switch name {
	case "zipg":
		sys.Store, err = zipg.Compress(zipg.GraphData{Nodes: d.Nodes, Edges: d.Edges}, zipg.Options{
			NumShards:    cmp.Or(zo.NumShards, 4),
			SamplingRate: cmp.Or(zo.SamplingRate, 32),
			Medium:       med,
		})
	case "neo4j":
		sys.Store, err = pointerstore.New(d.Nodes, d.Edges, pointerstore.Config{Medium: med})
	case "neo4j-tuned":
		// The tuned object cache shares the server's RAM: size it to a
		// fraction of the budget (~1 KiB per cached node record set).
		cacheNodes := 10000
		if budget >= 0 {
			cacheNodes = max(int(budget/4096), 16)
		}
		sys.Store, err = pointerstore.New(d.Nodes, d.Edges, pointerstore.Config{
			Medium: med, Tuned: true, CacheNodes: cacheNodes,
		})
	case "titan":
		sys.Store, err = kvstore.New(d.Nodes, d.Edges, kvstore.Config{Medium: med})
	case "titan-c":
		sys.Store, err = kvstore.New(d.Nodes, d.Edges, kvstore.Config{Medium: med, Compress: true})
	default:
		err = fmt.Errorf("bench: unknown system %q", name)
	}
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// writeSystem builds the ZipG graph the write-path figures drive: with
// the given LogStore threshold, fanned updates off for §3.5's broadcast
// strawman, and no simulated medium. Their fragment and rollover counts
// are read from its store.
func (c *cell) writeSystem(threshold int64, broadcast bool) (*System, *zipg.Graph, error) {
	g, err := zipg.Compress(zipg.GraphData{Nodes: c.d.Nodes, Edges: c.d.Edges}, zipg.Options{
		NumShards:            4,
		SamplingRate:         32,
		LogStoreThreshold:    threshold,
		DisableFannedUpdates: broadcast,
	})
	if err != nil {
		return nil, nil, err
	}
	sys := &System{Name: "zipg", Store: g, Med: memsim.Unlimited(), Clock: &memsim.Clock{}}
	c.built = append(c.built, sys)
	return sys, g, nil
}

// measure is the one timing loop of every figure. The first warm ops
// run untimed (the paper warms caches for 15 minutes); then the medium's
// statistics and virtual clock are reset and ops 0..n-1 are timed one by
// one. It returns each op's wall time; the run's simulated I/O stall is
// s.Clock.Elapsed() when it returns. An op's error is kept for the
// figure to report (s.err).
//
// pressure, if set, runs before every op with the medium silent: its
// accesses load and evict pages but cost nothing, and its CPU time is
// not the op's. This is how per-component throughputs (Figures 6–8's
// right-hand panels) are measured: a component benchmarked in a vacuum
// would let the LRU specialize to that component's structures and
// nothing would ever spill, whereas the paper measured components on
// servers whose caches held the whole production working set.
func (s *System) measure(n, warm int, op func(i int) error, pressure func(i int)) []time.Duration {
	run := func(i int) time.Duration {
		if pressure != nil {
			s.Med.SetSilent(true)
			pressure(i)
			s.Med.SetSilent(false)
		}
		start := time.Now()
		err := op(i)
		d := time.Since(start)
		if s.err == nil {
			s.err = err
		}
		return d
	}
	for i := 0; i < warm; i++ {
		run(i)
	}
	s.Med.ResetStats()
	s.Clock.Reset()
	durs := make([]time.Duration, n)
	for i := range durs {
		durs[i] = run(i)
	}
	return durs
}

// warmup is the default warm-up: a quarter of the ops, at most 500.
func warmup(n int) int { return min(n/4, 500) }

// throughput is ops per second over the ops' wall time plus the
// simulated stall.
func (s *System) throughput(durs []time.Duration) float64 {
	total := s.Clock.Elapsed()
	for _, d := range durs {
		total += d
	}
	return float64(len(durs)) / max(total, time.Nanosecond).Seconds()
}

// rate is the throughput of n ops measured with the default warm-up.
func (s *System) rate(n int, op func(i int) error, pressure func(i int)) float64 {
	return s.throughput(s.measure(n, warmup(n), op, pressure))
}

// busiest is Figure 9's distributed throughput: ops per second at the
// pace of the busiest of numDistServers servers, where op i's wall time
// goes to server owner(i) (-1: all servers, 1/k of it each, for a scan
// of every partition in parallel) and the simulated I/O stall — the
// medium is shared in this model — is spread evenly.
func (s *System) busiest(durs []time.Duration, owner func(i int) int) float64 {
	var busy [numDistServers]time.Duration
	for i, d := range durs {
		if o := owner(i); o >= 0 {
			busy[o] += d
			continue
		}
		for j := range busy {
			busy[j] += d / numDistServers
		}
	}
	total := slices.Max(busy[:]) + s.Clock.Elapsed()/numDistServers
	return float64(len(durs)) / max(total, time.Nanosecond).Seconds()
}

// execOps runs ops[i mod len(ops)] as op i.
func execOps(s graphapi.Store, ops []workloads.Op) func(i int) error {
	return func(i int) error {
		_, err := workloads.Execute(s, ops[i%len(ops)])
		return err
	}
}

// execGS runs the Graph Search op ops[i mod len(ops)] as op i. It never
// fails.
func execGS(s graphapi.Store, ops []workloads.GSOp, withJoins bool) func(i int) error {
	return func(i int) error {
		workloads.ExecuteGS(s, ops[i%len(ops)], withJoins)
		return nil
	}
}

// twice is the background pressure of a throughput measurement: two ops
// of the read mix before each measured op. Their errors are not the
// measured op's.
func twice(op func(i int) error) func(i int) {
	return func(i int) {
		_ = op(2 * i)
		_ = op(2*i + 1)
	}
}

// kindOps generates n operations of one kind.
func kindOps(d *gen.Dataset, kind workloads.OpKind, skew float64, seed int64, n int) []workloads.Op {
	var mix workloads.Frequencies
	mix[kind] = 1
	return workloads.GenerateOps(d, workloads.MixConfig{Mix: mix, AccessSkew: skew, Seed: seed}, n)
}

// datasetByName generates one of the six standard datasets, or gmark,
// Figure 12's graph: the paper's gMark graphs have no large property
// payloads, so it is a light LinkBench-like graph with 5 labels.
func datasetByName(name string, base int64) (*gen.Dataset, error) {
	gmark := gen.DatasetSpec{Name: "gmark", Kind: gen.LinkBench, TargetBytes: base, AvgDegree: 6, NumEdgeTypes: 5, Seed: 1201}
	for _, spec := range append(gen.StandardSpecs(base), gmark) {
		if spec.Name == name {
			return spec.Generate(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}
