package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"zipg"
	"zipg/internal/cluster"
	"zipg/internal/gen"
	"zipg/internal/graphapi"
	"zipg/internal/rpq"
	"zipg/internal/traversal"
	"zipg/internal/workloads"
)

var (
	realWorld = []string{"orkut", "twitter", "uk"}
	linkBench = []string{"lb-small", "lb-medium", "lb-large"}
	datasets  = append(realWorld[:3:3], linkBench...)
	taoParts  = []workloads.OpKind{workloads.OpAssocRange, workloads.OpObjGet, workloads.OpAssocGet, workloads.OpAssocCount, workloads.OpAssocTimeRange}
	lbParts   = []workloads.OpKind{workloads.OpAssocRange, workloads.OpObjGet, workloads.OpAssocAdd, workloads.OpAssocUpdate, workloads.OpObjUpdate}
)

// Figures is every table and figure of the paper's evaluation, in the
// paper's order, then the ablations of the design choices DESIGN.md
// calls out (no paper figure; §3.1/§3.5/§4.1 state the trade-offs).
var Figures = []*Figure{
	{
		Name: "table4", Title: "Table 4: datasets (scaled; paper ratios 1 : 12.5 : 32 preserved)",
		headers: []string{"dataset", "kind", "#nodes", "#edges", "avg-degree", "raw-bytes"},
		cases:   datasets,
		row: func(c *cell) error {
			kind := "social/web (TAO props)"
			if c.d.Spec.Kind == gen.LinkBench {
				kind = "linkbench"
			}
			c.add(c.name, kind, c.d.NumNodes(), c.d.NumEdges(), c.d.Spec.AvgDegree, c.d.RawBytes)
			return nil
		},
		claims: []Claim{
			{Name: "six datasets, sized 1 : 12.5 : 32 within 10%", holds: func(r *Result) bool {
				raw := r.column("raw-bytes")
				return len(raw) == 6 && near(raw[1]/raw[0], 12.5) && near(raw[2]/raw[0], 32) && near(raw[4]/raw[3], 12.5) && near(raw[5]/raw[3], 32)
			}},
		},
	},
	{
		Name: "fig5", Title: "Figure 5: storage footprint / raw input size",
		headers: append([]string{"dataset", "raw-bytes"}, SystemNames...),
		cases:   datasets,
		row: func(c *cell) error {
			return footprints(c, func(fp int64) any { return fmt.Sprintf("%.2f", float64(fp)/float64(c.d.RawBytes)) }, c.d.RawBytes)
		},
		claims: []Claim{
			{Name: "zipg smaller than neo4j and titan on every dataset", holds: func(r *Result) bool {
				return every(datasets, func(ds string) bool { return r.num("zipg", ds) < min(r.num("neo4j", ds), r.num("titan", ds)) })
			}},
			{Name: "zipg 1.8x smaller than neo4j and titan on uk and lb-large", holds: func(r *Result) bool {
				return every([]string{"uk", "lb-large"}, func(ds string) bool { return 1.8*r.num("zipg", ds) <= min(r.num("neo4j", ds), r.num("titan", ds)) })
			}},
			{Name: "zipg below titan-c on twitter, uk and lb-large", holds: func(r *Result) bool {
				return every([]string{"twitter", "uk", "lb-large"}, func(ds string) bool { return r.num("zipg", ds) < r.num("titan-c", ds) })
			}},
			{Name: "zipg comparable to titan-c: within 1.2x of it on every dataset", holds: func(r *Result) bool {
				return every(datasets, func(ds string) bool { return r.num("zipg", ds) <= 1.2*r.num("titan-c", ds) })
			}, Deviation: "deviation 1: titan-c's gzip over-compresses synthetic data, and a 256 KiB dataset is mostly zipg's per-shard fixed cost"},
			{Name: "linkbench compresses worse for zipg: lb-small above orkut, lb-large above uk", holds: func(r *Result) bool {
				return r.num("zipg", "orkut") < r.num("zipg", "lb-small") && r.num("zipg", "uk") < r.num("zipg", "lb-large")
			}},
			{Name: "neo4j and titan overheads smaller on linkbench: lb-large below uk", holds: func(r *Result) bool {
				return r.num("neo4j", "lb-large") < r.num("neo4j", "uk") && r.num("titan", "lb-large") < r.num("titan", "uk")
			}},
		},
	},
	{
		Name: "table5", Title: fmt.Sprintf("Table 5: fits in memory (budget = %.1fx base)", MemoryRatio),
		headers: append([]string{"dataset"}, SystemNames...),
		cases:   datasets,
		row: func(c *cell) error {
			return footprints(c, func(fp int64) any {
				return map[bool]string{true: "yes", false: "no"}[float64(fp) <= float64(c.opts.BaseBytes)*MemoryRatio]
			})
		},
		claims: []Claim{
			{Name: "orkut and lb-small fit everywhere", holds: func(r *Result) bool {
				return r.line("orkut") == "yes yes yes yes yes" && r.line("lb-small") == "yes yes yes yes yes"
			}},
			{Name: "twitter and lb-medium fit only zipg and titan-c", holds: func(r *Result) bool {
				return r.line("twitter") == "no no no yes yes" && r.line("lb-medium") == "no no no yes yes"
			}},
			{Name: "zipg fits more datasets than neo4j", holds: func(r *Result) bool {
				return strings.Count(r.line("zipg"), "yes") > strings.Count(r.line("neo4j"), "yes")
			}},
			{Name: "uk and lb-large fit only zipg", holds: func(r *Result) bool {
				return r.line("uk") == "no no no no yes" && r.line("lb-large") == "no no no no yes"
			}},
		},
	},
	mixFigure("fig6", "Figure 6: single-server TAO throughput (overall + top-5 queries)", realWorld,
		workloads.MixConfig{Mix: workloads.TAOMix, AccessSkew: 0, Seed: 601}, taoParts,
		Claim{Name: "comparable on orkut: zipg within 1.5x of neo4j-tuned and ahead of titan", holds: func(r *Result) bool {
			return 1.5*r.kops("orkut", "zipg") >= r.kops("orkut", "neo4j-tuned") && r.kops("orkut", "zipg") > r.kops("orkut", "titan")
		}},
		Claim{Name: "neo4j collapses on twitter: 2x below its orkut throughput, while zipg keeps half of its own", holds: func(r *Result) bool {
			return r.kops("orkut", "neo4j") >= 2*r.kops("twitter", "neo4j") && 2*r.kops("twitter", "zipg") >= r.kops("orkut", "zipg")
		}},
		Claim{Name: "zipg leads every system on twitter and uk", holds: func(r *Result) bool {
			return r.leads("overall-KOps", "twitter", 1) && r.leads("overall-KOps", "uk", 1)
		}},
		Claim{Name: "order-of-magnitude lead on uk: zipg >= 2x neo4j-tuned and >= 10x titan", holds: func(r *Result) bool {
			return r.kops("uk", "zipg") >= 2*r.kops("uk", "neo4j-tuned") && r.kops("uk", "zipg") >= 10*r.kops("uk", "titan")
		}},
		Claim{Name: "zipg's assoc_count (a metadata-only read) >= 2x every baseline's on orkut", holds: func(r *Result) bool {
			return r.leads("assoc_count-KOps", "orkut", 2)
		}},
		Claim{Name: "zipg's obj_get on uk keeps half its orkut throughput", holds: func(r *Result) bool {
			return 2*r.num("obj_get-KOps", "uk", "zipg") >= r.num("obj_get-KOps", "orkut", "zipg")
		}},
		Claim{Name: "titan holds on twitter: half its orkut throughput or more", holds: func(r *Result) bool {
			return 2*r.kops("twitter", "titan") >= r.kops("orkut", "titan")
		}, Deviation: "deviation 2: this titan's row working set (bidirectional rows with full property copies) outgrows the budget one dataset earlier"},
	),
	mixFigure("fig7", "Figure 7: single-server LinkBench throughput (overall + top-5 queries)", linkBench,
		workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 701}, lbParts,
		Claim{Name: "zipg wins overall on every dataset", holds: func(r *Result) bool {
			return every(linkBench, func(ds string) bool { return r.leads("overall-KOps", ds, 1) })
		}},
		Claim{Name: "neo4j's writes bottleneck on multi-location updates: assoc_update is its slowest write", holds: func(r *Result) bool {
			return every(linkBench, func(ds string) bool {
				return r.num("assoc_update-KOps", ds, "neo4j") < min(r.num("assoc_add-KOps", ds, "neo4j"), r.num("obj_update-KOps", ds, "neo4j"))
			})
		}},
		Claim{Name: "titan writes well but reads ranges poorly: obj_update holds from lb-small to lb-large, assoc_range drops 2x", holds: func(r *Result) bool {
			return 2*r.num("obj_update-KOps", "lb-large", "titan") >= r.num("obj_update-KOps", "lb-small", "titan") &&
				r.num("assoc_range-KOps", "lb-small", "titan") >= 2*r.num("assoc_range-KOps", "lb-large", "titan")
		}},
		Claim{Name: "zipg's LogStore keeps write throughput high: assoc_add ahead of every baseline's on every dataset", holds: func(r *Result) bool {
			return every(linkBench, func(ds string) bool { return r.leads("assoc_add-KOps", ds, 1) })
		}},
		Claim{Name: "zipg's overall drops from lb-small to lb-large", holds: func(r *Result) bool {
			return r.kops("lb-large", "zipg") < r.kops("lb-small", "zipg")
		}},
	),
	{
		Name: "fig8", Title: "Figure 8: single-server Graph Search throughput (overall + GS1-GS5)",
		headers: []string{"dataset", "system", "overall-KOps", "GS1-KOps", "GS2-KOps", "GS3-KOps", "GS4-KOps", "GS5-KOps"},
		cases:   realWorld, systems: SystemNames, budget: MemoryRatio,
		row: func(c *cell) error {
			tc := startTelemetryCapture()
			all := workloads.GenerateGSOps(c.d, 801, c.opts.Ops)
			cells := []any{c.name, c.sys.Name, kops(c.sys.rate(len(all), execGS(c.sys.Store, all, false), nil))}
			for kind := workloads.KindGS1; kind <= workloads.KindGS5; kind++ {
				ops := workloads.FilterGSKind(all, kind)
				cells = append(cells, kops(c.sys.rate(len(ops), execGS(c.sys.Store, ops, false), twice(execGS(c.sys.Store, all, false)))))
			}
			c.add(cells...)
			c.note(tc.finish(c.name + "/" + c.sys.Name)...)
			return nil
		},
		claims: []Claim{
			{Name: "neo4j-tuned beats zipg on orkut (global index, all in memory), overall and on GS3", holds: func(r *Result) bool {
				return r.kops("orkut", "neo4j-tuned") > r.kops("orkut", "zipg") && r.num("GS3-KOps", "orkut", "neo4j-tuned") > r.num("GS3-KOps", "orkut", "zipg")
			}},
			{Name: "as data outgrows memory zipg takes the lead: 2x neo4j-tuned's overall on uk", holds: func(r *Result) bool {
				return r.kops("uk", "zipg") >= 2*r.kops("uk", "neo4j-tuned")
			}},
			{Name: "zipg leads every system on uk's GS4 and GS5", holds: func(r *Result) bool {
				return r.leads("GS4-KOps", "uk", 1) && r.leads("GS5-KOps", "uk", 1)
			}},
		},
	},
	{
		Name:    "fig9",
		Title:   fmt.Sprintf("Figure 9: distributed cluster (%d servers, total budget %.1fx base)", numDistServers, distMemoryRatio),
		headers: []string{"workload", "dataset", "system", "distributed-KOps", "single-server-KOps", "scaling"},
		cases:   []string{"tao/twitter", "tao/uk", "linkbench/lb-medium", "linkbench/lb-large", "graphsearch/twitter", "graphsearch/uk"},
		systems: []string{"titan", "titan-c", "zipg"}, budget: distMemoryRatio,
		row: fig9Row,
		claims: []Claim{
			{Name: "titan fits twitter in cluster memory: >= 2x its single-server tao throughput", holds: func(r *Result) bool {
				return r.num("scaling", "tao", "twitter", "titan") >= 2
			}},
			{Name: "zipg's tao throughput scales with the servers: >= 2x on twitter and uk", holds: func(r *Result) bool {
				return r.num("scaling", "tao", "twitter", "zipg") >= 2 && r.num("scaling", "tao", "uk", "zipg") >= 2
			}},
			{Name: "zipg's tao throughput scales with the core count: 80 cluster cores over 32 give 2.5x, within 10%", holds: func(r *Result) bool {
				return every(realWorld[1:], func(ds string) bool { return near(r.num("scaling", "tao", ds, "zipg"), 2.5) })
			}, Deviation: "deviation 5: a simulated server is one single-threaded process, so the model's ideal is the server count (10x), not the paper's core ratio"},
			{Name: "zipg's linkbench scales sub-linearly (hot-node servers bottleneck): below 5x, half the servers, on lb-medium and lb-large", holds: func(r *Result) bool {
				return r.num("scaling", "linkbench", "lb-medium", "zipg") < 5 && r.num("scaling", "linkbench", "lb-large", "zipg") < 5
			}},
			{Name: "titan's graphsearch scales better than zipg's on twitter and uk", holds: func(r *Result) bool {
				return every(realWorld[1:], func(ds string) bool {
					return r.num("scaling", "graphsearch", ds, "titan") > r.num("scaling", "graphsearch", ds, "zipg")
				})
			}},
			{Name: "zipg's distributed throughput >= 2x titan's on tao and graphsearch", holds: func(r *Result) bool {
				return every([]string{"tao", "graphsearch"}, func(w string) bool {
					return every(realWorld[1:], func(ds string) bool {
						return r.num("distributed-KOps", w, ds, "zipg") >= 2*r.num("distributed-KOps", w, ds, "titan")
					})
				})
			}},
		},
	},
	{
		Name: "fig10", Title: "Figure 10: CDF of #fragments a node's data spans (snapshots at increasing query counts)",
		headers: []string{"snapshot", "ops", "p50", "p90", "p99", "p99.9", "max", "total-fragments"},
		cases:   []string{"lb-small"},
		row: func(c *cell) error {
			snaps, st, err := fragmentation(c, 3)
			for i, counts := range snaps {
				sort.Ints(counts)
				pct := func(p float64) int { return counts[int(p*float64(len(counts)-1))] }
				c.add(i+1, (i+1)*c.opts.Ops, pct(0.50), pct(0.90), pct(0.99), pct(0.999), counts[len(counts)-1], st.Store().NumFragments())
			}
			return err
		},
		claims: []Claim{
			{Name: "the median node spans at most 3 fragments at every snapshot", holds: func(r *Result) bool {
				return every(r.column("p50"), func(p50 float64) bool { return p50 <= 3 })
			}},
			{Name: "no node spans more fragments than there are", holds: func(r *Result) bool {
				return every(r.Rows, func(row []string) bool { return r.num("max", row[0]) <= r.num("total-fragments", row[0]) })
			}},
			{Name: "fragmentation grows with query volume: p99 and max never fall", holds: func(r *Result) bool {
				return steps(r.column("p99"), le) && steps(r.column("max"), le)
			}},
			{Name: "for >99% of nodes the data spans <10% of the fragments", holds: func(r *Result) bool {
				return every(r.Rows, func(row []string) bool { return r.num("p99", row[0]) < 0.1*r.num("total-fragments", row[0]) })
			}, Deviation: "deviation 7: a few dozen scaled fragments in all, so the Zipf-hot nodes' tail spans most of them"},
		},
	},
	{
		Name: "fig11", Title: "Figure 11: fragmentation vs #queries (average and most-fragmented node)",
		headers: []string{"ops", "avg-fragments", "max-fragments"},
		cases:   []string{"lb-small"},
		row: func(c *cell) error {
			snaps, _, err := fragmentation(c, 5)
			for i, counts := range snaps {
				sum, most := 0, 0
				for _, n := range counts {
					sum, most = sum+n, max(most, n)
				}
				c.add((i+1)*c.opts.Ops, fmt.Sprintf("%.3f", float64(sum)/float64(len(counts))), most)
			}
			return err
		},
		claims: []Claim{
			{Name: "average fragmentation grows as more queries execute", holds: func(r *Result) bool { return steps(r.column("avg-fragments"), lt) }},
			{Name: "maximum fragmentation grows as more queries execute", holds: func(r *Result) bool { return steps(r.column("max-fragments"), lt) }},
		},
	},
	{
		Name: "fig12", Title: "Figure 12: regular path query latency (50 gMark-style queries), ZipG vs Neo4j-Tuned",
		headers: []string{"query", "class", "expr", "zipg-ms", "neo4j-ms", "zipg-results"},
		cases:   []string{"gmark"},
		row:     fig12Rows,
		notes:   []string{"zipg's recursive-query latency includes a charge modelling the paper's serial transitive-closure aggregation (Appendix B.1)"},
		claims: []Claim{
			{Name: "zipg's latency relative to neo4j is worse on recursive queries than on linear and branched ones", holds: func(r *Result) bool {
				return r.slowdown("recursive") > max(r.slowdown("linear"), r.slowdown("branched"))
			}},
			{Name: "zipg wins long linear and branched traversals", holds: func(r *Result) bool {
				return max(r.slowdown("linear"), r.slowdown("branched")) < 1
			}, Deviation: "deviation 3: both systems run one Go query evaluator, with none of Cypher's interpretation overhead, so neo4j wins every class"},
		},
	},
	{
		Name: "fig13", Title: "Figure 13: BFS traversal latency (depth 5, 100 random starts)",
		headers: []string{"dataset", "system", "avg-latency-ms", "avg-visited"},
		cases:   []string{"orkut", "twitter"}, systems: []string{"neo4j-tuned", "zipg"}, budget: MemoryRatio,
		row: fig13Row,
		claims: []Claim{
			{Name: "neo4j wins when the graph fits in memory (orkut)", holds: func(r *Result) bool {
				return r.num("avg-latency-ms", "orkut", "neo4j-tuned") < r.num("avg-latency-ms", "orkut", "zipg")
			}},
			{Name: "zipg wins when neo4j spills (twitter)", holds: func(r *Result) bool {
				return r.num("avg-latency-ms", "twitter", "zipg") < r.num("avg-latency-ms", "twitter", "neo4j-tuned")
			}},
		},
	},
	{
		Name: "fig14", Title: "Figure 14: ZipG queries with vs without joins (GS2, GS3)",
		headers: []string{"dataset", "query", "no-joins-KOps", "with-joins-KOps"},
		cases:   realWorld, systems: []string{"zipg"}, budget: MemoryRatio,
		row: func(c *cell) error {
			all := workloads.GenerateGSOps(c.d, 1401, c.opts.Ops)
			for _, kind := range []workloads.GSKind{workloads.KindGS2, workloads.KindGS3} {
				ops := workloads.FilterGSKind(all, kind)
				// The two plans are measured as a pair: passes alternate
				// between them and each keeps its best, so host noise
				// during one pass does not land on one plan alone.
				var best [2]float64 // no joins, with joins
				for pass := 0; pass < 5; pass++ {
					for j, withJoins := range []bool{false, true} {
						best[j] = max(best[j], c.sys.rate(len(ops), execGS(c.sys.Store, ops, withJoins), nil))
					}
				}
				c.add(c.name, kind, kops(best[0]), kops(best[1]))
			}
			return nil
		},
		claims: []Claim{
			{Name: "the no-join plan beats the join plan for GS3 on every dataset", holds: func(r *Result) bool {
				return every(realWorld, func(ds string) bool { return r.noJoinWins(ds, "GS3") })
			}},
			{Name: "the no-join plan beats the join plan for GS2 on twitter and uk", holds: func(r *Result) bool {
				return r.noJoinWins("twitter", "GS2") && r.noJoinWins("uk", "GS2")
			}},
			{Name: "the no-join plan beats the join plan for GS2 on orkut", holds: func(r *Result) bool { return r.noJoinWins("orkut", "GS2") },
				Deviation: "deviation 4: at toy scale one property value matches fewer nodes than a hot node has neighbors, so the paper's cardinality argument flips"},
		},
	},
	// α moves only a multi-property NodeFile's samples: the EdgeFile's
	// store is sampled at its property lists' starts and a one-property
	// NodeFile's at its records' delimiters, where their reads begin,
	// whatever α is (DESIGN.md "EdgeFile samples at list starts",
	// "NodeFile samples at record starts"). orkut's nodes have many
	// properties, so its NodeFile is on the grid.
	{
		Name: "ablation-alpha", Title: "Ablation: Succinct sampling rate α of the NodeFile (space vs latency, §3.1)",
		headers: []string{"alpha", "footprint/raw", "obj_get-KOps", "assoc_range-KOps"},
		cases:   []string{"orkut"},
		row: func(c *cell) error {
			objOps := kindOps(c.d, workloads.OpObjGet, 0, 2001, c.opts.Ops)
			rangeOps := kindOps(c.d, workloads.OpAssocRange, 0, 2002, c.opts.Ops)
			for _, alpha := range []int{4, 8, 16, 32, 64, 128} {
				sys, err := c.build("zipg", -1, zipg.Options{SamplingRate: alpha})
				if err != nil {
					return err
				}
				objT, rangeT := sys.rate(len(objOps), execOps(sys.Store, objOps), nil), sys.rate(len(rangeOps), execOps(sys.Store, rangeOps), nil)
				c.add(alpha, fmt.Sprintf("%.2f", float64(sys.Med.Footprint())/float64(c.d.RawBytes)), kops(objT), kops(rangeT))
			}
			return nil
		},
		claims: []Claim{
			{Name: "footprint falls as α grows: it never grows", holds: func(r *Result) bool { return steps(r.column("footprint/raw"), ge) }},
			{Name: "obj_get at α=4 within 2x of α=128", holds: func(r *Result) bool { return r.num("obj_get-KOps", "4") <= 2*r.num("obj_get-KOps", "128") }},
		},
	},
	{
		Name: "ablation-fanned", Title: "Ablation: fanned updates vs broadcast reads (§3.5)",
		headers: []string{"mode", "fragments", "obj_get-KOps", "assoc_range-KOps"},
		cases:   []string{"lb-small"},
		row:     fannedRows,
		claims: []Claim{
			{Name: "both modes read the same fragments", holds: func(r *Result) bool {
				return r.cellOf("fragments", "fanned-updates") == r.cellOf("fragments", "broadcast")
			}},
			{Name: "after many rollovers, pointer-guided assoc_range reads beat consulting every fragment", holds: func(r *Result) bool {
				return r.num("assoc_range-KOps", "fanned-updates") > r.num("assoc_range-KOps", "broadcast")
			}},
		},
	},
	{
		Name: "ablation-logstore", Title: "Ablation: LogStore rollover threshold (§3.5)",
		headers: []string{"threshold", "rollovers", "fragments", "write-KOps", "read-KOps"},
		cases:   []string{"lb-small"},
		row: func(c *cell) error {
			writeOps := kindOps(c.d, workloads.OpAssocAdd, 1.4, 2201, c.opts.Ops*2)
			readOps := kindOps(c.d, workloads.OpAssocRange, 1.4, 2202, c.opts.Ops)
			for _, div := range []int64{64, 16, 4, 1} {
				sys, st, err := c.writeSystem(c.opts.BaseBytes/div, false)
				if err != nil {
					return err
				}
				writeT := sys.throughput(sys.measure(len(writeOps), 0, execOps(sys.Store, writeOps), nil))
				readT := sys.rate(len(readOps), execOps(sys.Store, readOps), nil)
				c.add(c.opts.BaseBytes/div, st.Store().Rollovers(), st.Store().NumFragments(), kops(writeT), kops(readT))
			}
			return nil
		},
		claims: []Claim{
			{Name: "small thresholds fragment: rollovers and fragments fall as the threshold grows", holds: func(r *Result) bool {
				return steps(r.column("rollovers"), gt) && steps(r.column("fragments"), gt)
			}},
			{Name: "reads fastest at the largest threshold: above the smallest's", holds: func(r *Result) bool {
				reads := r.column("read-KOps")
				return reads[len(reads)-1] > reads[0]
			}},
		},
	},
	{
		Name: "ablation-shards", Title: "Ablation: shard count (node-local vs all-shard queries, §4.1)",
		headers: []string{"shards", "obj_get-KOps", "get_node_ids-KOps"},
		cases:   []string{"orkut"},
		row: func(c *cell) error {
			searchOps := workloads.FilterGSKind(workloads.GenerateGSOps(c.d, 2301, c.opts.Ops), workloads.KindGS3)
			objOps := kindOps(c.d, workloads.OpObjGet, 0, 2302, c.opts.Ops)
			for _, shards := range []int{1, 2, 4, 8, 16} {
				sys, err := c.build("zipg", -1, zipg.Options{NumShards: shards})
				if err != nil {
					return err
				}
				objT, searchT := sys.rate(len(objOps), execOps(sys.Store, objOps), nil), sys.rate(len(searchOps), execGS(sys.Store, searchOps, false), nil)
				c.add(shards, kops(objT), kops(searchT))
			}
			return nil
		},
		claims: []Claim{
			{Name: "node-local obj_get roughly flat: 16 shards within 2x of 1", holds: func(r *Result) bool {
				return r.num("obj_get-KOps", "16") <= 2*r.num("obj_get-KOps", "1") && r.num("obj_get-KOps", "1") <= 2*r.num("obj_get-KOps", "16")
			}},
			{Name: "get_node_ids degrades with shard count: slower at 16 shards than at 1", holds: func(r *Result) bool {
				return r.num("get_node_ids-KOps", "16") < r.num("get_node_ids-KOps", "1")
			}},
		},
	},
}

func le(a, b float64) bool { return a <= b }
func lt(a, b float64) bool { return a < b }
func ge(a, b float64) bool { return a >= b }
func gt(a, b float64) bool { return a > b }

// near reports whether x is within 10% of want.
func near(x, want float64) bool { return x >= 0.9*want && x <= 1.1*want }

// kops is a system's overall throughput on a dataset.
func (r *Result) kops(ds, sys string) float64 { return r.num("overall-KOps", ds, sys) }

// leads reports whether zipg's col on ds is at least k times every
// baseline's.
func (r *Result) leads(col, ds string, k float64) bool {
	return every(SystemNames[:4], func(sys string) bool { return r.num(col, ds, "zipg") >= k*r.num(col, ds, sys) })
}

// line is a Table 5 row ("yes no …", one word a system) when key is a
// dataset, or a column (one word a dataset) when key is a system.
func (r *Result) line(key string) string {
	var words []string
	for _, row := range r.Rows {
		if row[0] == key {
			return strings.Join(row[1:], " ")
		}
		words = append(words, r.cellOf(key, row[0]))
	}
	return strings.Join(words, " ")
}

// slowdown is Figure 12's zipg-to-neo4j latency ratio over one query
// class.
func (r *Result) slowdown(class string) float64 {
	var z, n float64
	for _, row := range r.Rows {
		if row[1] == class {
			z, n = z+number(row[3]), n+number(row[4])
		}
	}
	return z / n
}

// noJoinWins reports whether Figure 14's no-join plan beat the join plan.
func (r *Result) noJoinWins(ds, query string) bool {
	return r.num("no-joins-KOps", ds, query) > r.num("with-joins-KOps", ds, query)
}

// footprints adds a row: the case, the lead cells, then each system's
// footprint over the case's dataset, without a budget, as format
// renders it. Figure 5 and Table 5 read one pass: the footprints are
// measured once per dataset and base size.
func footprints(c *cell, format func(footprint int64) any, lead ...any) error {
	key := fmt.Sprint(c.name, c.opts.BaseBytes)
	fps, ok := footprintPass.Load(key)
	if !ok {
		var measured []int64
		for _, name := range SystemNames {
			sys, err := c.build(name, -1, zipg.Options{})
			if err != nil {
				return err
			}
			measured = append(measured, sys.Med.Footprint())
		}
		fps, _ = footprintPass.LoadOrStore(key, measured)
	}
	cells := append([]any{c.name}, lead...)
	for _, fp := range fps.([]int64) {
		cells = append(cells, format(fp))
	}
	c.add(cells...)
	return nil
}

// footprintPass holds the footprints footprints measured, by dataset
// and base size. They are a deterministic function of the two.
var footprintPass sync.Map

// mixFigure is a single-server mix figure (6 and 7): overall and
// per-component throughput of every system under the paper's budget.
func mixFigure(name, title string, cases []string, mix workloads.MixConfig, parts []workloads.OpKind, claims ...Claim) *Figure {
	headers := []string{"dataset", "system", "overall-KOps"}
	for _, k := range parts {
		headers = append(headers, k.String()+"-KOps")
	}
	return &Figure{
		Name: name, Title: title, headers: headers, cases: cases, systems: SystemNames, budget: MemoryRatio, claims: claims,
		row: func(c *cell) error {
			cells := []any{c.name, c.sys.Name}
			tputs, notes := runMix(c.sys, c.d, mix, parts, c.opts.Ops)
			for _, t := range tputs {
				cells = append(cells, kops(t))
			}
			c.add(cells...)
			c.note(notes...)
			return nil
		},
	}
}

// runMix measures a mix's overall throughput on sys, then each
// component query's alone, all under silent cache pressure from the
// mix's read-only part: the paper measured after 15-minute warm-ups on
// servers whose caches held the whole production working set, which a
// short measurement window would not otherwise reproduce. The notes are
// the run's telemetry delta (none for systems that never touch an
// instrumented ZipG path).
func runMix(sys *System, d *gen.Dataset, mix workloads.MixConfig, parts []workloads.OpKind, n int) ([]float64, []string) {
	tc := startTelemetryCapture()
	pressure := twice(execOps(sys.Store, workloads.GenerateOps(d, workloads.MixConfig{
		Mix: readOnly(mix.Mix), AccessSkew: mix.AccessSkew, Seed: mix.Seed + 7777,
	}, n)))
	ops := workloads.GenerateOps(d, mix, n)
	tputs := []float64{sys.rate(len(ops), execOps(sys.Store, ops), pressure)}
	for _, kind := range parts {
		ops := kindOps(d, kind, mix.AccessSkew, mix.Seed+int64(kind)+1, n/2)
		tputs = append(tputs, sys.rate(len(ops), execOps(sys.Store, ops), pressure))
	}
	return tputs, tc.finish(d.Spec.Name + "/" + sys.Name)
}

// readOnly keeps only the non-mutating operations of a mix.
func readOnly(mix workloads.Frequencies) workloads.Frequencies {
	var out workloads.Frequencies
	for _, k := range taoParts {
		out[k] = mix[k]
	}
	return out
}

// Figure 9 compares ZipG and Titan on a 10-server cluster. The paper's
// cluster had 10 m3.2xlarge servers (300 GB total RAM vs the single
// server's 244 GB). Reproducing multi-server CPU parallelism is not
// possible on one core, so the harness uses an explicit attribution
// model over the real partition layout:
//
//   - Capacity: the medium budget becomes 300/244 of the single-server
//     budget (what lets Titan fit twitter in memory, §5.3).
//   - Parallelism: every executed operation's measured service time is
//     attributed to the server(s) that would execute it — the owner of
//     the queried node for node-local queries, all servers (1/k of the
//     time each, since the partition scans run in parallel) for
//     get_node_ids on ZipG, and the index row's owner for Titan's
//     global-index search. Distributed throughput is
//     N / (max over servers of attributed busy time + simulated I/O),
//     i.e. the cluster runs at the pace of its busiest server.
//
// This reproduces the paper's three findings mechanically: near-ideal
// TAO scaling (uniform access spreads busy time), sub-linear LinkBench
// scaling (Zipf skew concentrates busy time on the hot nodes' servers),
// and Titan out-scaling ZipG on GS3 (index row on one server vs
// all-server fan-out).
const (
	numDistServers  = 10
	distMemoryRatio = MemoryRatio * 300.0 / 244.0
)

// fig9Row measures one workload on one system on the cluster, then on a
// single server built afresh under the single-server budget.
func fig9Row(c *cell) error {
	workload, sys, n := c.name[:strings.Index(c.name, "/")], c.sys, c.opts.Ops
	mix := workloads.MixConfig{Mix: workloads.TAOMix, AccessSkew: 0, Seed: 911}
	if workload == "linkbench" {
		mix = workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 912}
	}
	var dist, one float64
	if workload == "graphsearch" {
		ops := workloads.GenerateGSOps(c.d, 901, n)
		dist = sys.busiest(sys.measure(len(ops), warmup(len(ops)), execGS(sys.Store, ops, false), nil), func(i int) int {
			switch op := ops[i]; {
			case op.Kind != workloads.KindGS3:
				return cluster.OwnerOf(op.ID, numDistServers)
			case sys.Name == "zipg":
				return -1 // no global index: every partition is searched
			default:
				// Titan: the index row lives on one server; a stable
				// pseudo-owner derived from the queried value.
				h := 0
				for k, v := range op.P1 {
					for _, ch := range k + v {
						h = h*31 + int(ch)
					}
				}
				return max(h, -h) % numDistServers
			}
		})
	} else {
		ops := workloads.GenerateOps(c.d, mix, n)
		dist = sys.busiest(sys.measure(len(ops), warmup(len(ops)), execOps(sys.Store, ops), nil), func(i int) int {
			return cluster.OwnerOf(ops[i].ID, numDistServers)
		})
	}
	single, err := c.build(sys.Name, int64(float64(c.opts.BaseBytes)*MemoryRatio), zipg.Options{})
	if err != nil {
		return err
	}
	if workload == "graphsearch" {
		ops := workloads.GenerateGSOps(c.d, 913, n)
		one = single.rate(len(ops), execGS(single.Store, ops, false), nil)
	} else {
		tputs, _ := runMix(single, c.d, mix, nil, n)
		one = tputs[0]
	}
	c.add(workload, c.d.Spec.Name, sys.Name, kops(dist), kops(one), fmt.Sprintf("%.2fx", dist/one))
	return nil
}

// fragmentation drives a LinkBench-style write-heavy stream over a ZipG
// store with a small LogStore threshold (the paper used an 8 GB
// threshold over 40 shards; scaled here) and snapshots every node's
// fragment count after each of snapshots equal chunks (Appendix A).
func fragmentation(c *cell, snapshots int) ([][]int, *zipg.Graph, error) {
	sys, st, err := c.writeSystem(c.opts.BaseBytes/16, false)
	if err != nil {
		return nil, st, err
	}
	ops := workloads.GenerateOps(c.d, workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 1001}, c.opts.Ops*snapshots)
	exec := execOps(sys.Store, ops)
	var out [][]int
	for i := range ops {
		if err := exec(i); err != nil {
			return nil, st, err
		}
		if (i+1)%c.opts.Ops == 0 {
			counts := make([]int, c.d.NumNodes())
			for id := range counts {
				counts[id] = st.FragmentsOf(int64(id))
			}
			out = append(out, counts)
		}
	}
	return out, st, nil
}

// zipgClosurePenalty models the serial transitive-closure aggregation
// the paper describes for ZipG's recursive path queries (Appendix B.1:
// "the transitive closure computation requires collecting all the paths
// at an aggregator and employs a serial algorithm"): each product-state
// the closure visits costs this much extra aggregator time on ZipG.
// The distinction does not arise naturally in this single-process
// implementation, so it is charged explicitly; EXPERIMENTS.md documents
// the substitution.
const zipgClosurePenalty = 3 * time.Microsecond

// fig12Rows runs the 50 gMark-style path queries on ZipG and
// Neo4j-Tuned (both fit the dataset in memory in the paper). Path
// queries start from a bounded sample of nodes (gMark binds sources);
// results and limits are identical across systems.
func fig12Rows(c *cell) error {
	zipgSys, err := c.build("zipg", -1, zipg.Options{})
	if err != nil {
		return err
	}
	neoSys, err := c.build("neo4j-tuned", -1, zipg.Options{})
	if err != nil {
		return err
	}
	starts := sampleNodes(c.d, 1203, 100)
	eval := func(s graphapi.Store, q rpq.Query) (time.Duration, int, int) {
		start := time.Now()
		pairs, visited := q.Expr.EvalWithStats(s, starts, rpq.Limits{MaxResults: 5000, MaxVisited: 20000})
		return time.Since(start), len(pairs), visited
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()*1000) }
	for _, q := range rpq.GenerateQueries(1202, 50, 5) {
		zd, results, visited := eval(zipgSys.Store, q)
		if q.Expr.IsRecursive() {
			zd += time.Duration(visited) * zipgClosurePenalty
		}
		nd, _, _ := eval(neoSys.Store, q)
		c.add(fmt.Sprintf("q%d", q.ID), q.Class, q.Expr.Text, ms(zd), ms(nd), results)
	}
	return nil
}

func sampleNodes(d *gen.Dataset, seed int64, n int) []graphapi.NodeID {
	perm := rand.New(rand.NewSource(seed)).Perm(d.NumNodes())[:min(n, d.NumNodes())]
	out := make([]graphapi.NodeID, len(perm))
	for i, p := range perm {
		out[i] = int64(p)
	}
	return out
}

// fig13Row measures depth-5 breadth-first traversals from 100 random
// starts, under background cache pressure from the TAO read mix (see
// measure): traversals in production run on servers whose caches hold
// the whole working set, not just the relationship chains. A depth-5
// traversal touches hundreds of records, so the interleaved production
// traffic is sized accordingly.
func fig13Row(c *cell) error {
	const pressurePerBFS = 48
	starts := sampleNodes(c.d, 1301, 100)
	pressure := execOps(c.sys.Store, workloads.GenerateOps(c.d, workloads.MixConfig{
		Mix: readOnly(workloads.TAOMix), Seed: 1302,
	}, pressurePerBFS*len(starts)))
	visited := make([]int, len(starts))
	durs := c.sys.measure(len(starts), 10, func(i int) error {
		visited[i] = len(traversal.BFS(c.sys.Store, starts[i], 5))
		return nil
	}, func(k int) {
		for j := 0; j < pressurePerBFS; j++ {
			_ = pressure(pressurePerBFS*k + j)
		}
	})
	total := 0
	for _, v := range visited {
		total += v
	}
	c.add(c.name, c.sys.Name, fmt.Sprintf("%.2f", 1000/c.sys.throughput(durs)), total/len(starts))
	return nil
}

// fannedRows compares the fanned-updates read path against the
// broadcast strawman of §3.5 (consult every fragment) after a burst of
// updates has fragmented the store.
func fannedRows(c *cell) error {
	writeOps := workloads.GenerateOps(c.d, workloads.MixConfig{Mix: workloads.LinkBenchMix, AccessSkew: 1.4, Seed: 2101}, c.opts.Ops*4)
	objOps := kindOps(c.d, workloads.OpObjGet, 0, 2102, c.opts.Ops)
	rangeOps := kindOps(c.d, workloads.OpAssocRange, 0, 2103, c.opts.Ops)
	var syss [2]*System
	var frags [2]int
	for i := range syss {
		sys, st, err := c.writeSystem(c.opts.BaseBytes/16, i == 1)
		if err != nil {
			return err
		}
		sys.measure(0, len(writeOps), execOps(sys.Store, writeOps), nil) // fragment it, untimed
		syss[i], frags[i] = sys, st.Store().NumFragments()
	}
	// The modes differ by what it costs to consult a fragment that holds
	// nothing for the node — an index miss per compressed fragment, a map
	// miss per log — which is a fraction of a read. So the two are
	// measured as a pair: passes alternate between them, and each keeps
	// its best, which leaves the host's drift and the noise of any one
	// pass out of the comparison.
	var best [2][2]float64 // mode; obj_get, assoc_range
	for pass := 0; pass < 25; pass++ {
		for i, sys := range syss {
			best[i][0] = max(best[i][0], sys.rate(len(objOps), execOps(sys.Store, objOps), nil))
			best[i][1] = max(best[i][1], sys.rate(len(rangeOps), execOps(sys.Store, rangeOps), nil))
		}
	}
	for i, mode := range []string{"fanned-updates", "broadcast"} {
		c.add(mode, frags[i], kops(best[i][0]), kops(best[i][1]))
	}
	return nil
}
