// Command benchmark is this repository's benchmark: four workloads (TAO
// and LinkBench mixes and the Graph Search queries, in-process and
// through a loopback cluster) measured end to end, a ladder of per-layer
// unit costs, and a traced run that ties the two together. It measures
// every layer from outside, through exported functions, timers,
// telemetry snapshots and the span API. See README.md.
//
// One invocation measures one workload:
//
//	benchmark --workload tao_local --seed 1 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
// that BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"zipg/internal/gen"
)

// errOut receives everything that is not the result line.
var errOut io.Writer = os.Stderr

var processStart = time.Now()

// progress notes on errOut how far into the process a step finished.
func progress(format string, args ...any) {
	fmt.Fprintf(errOut, "[%6.2fs] %s\n", time.Since(processStart).Seconds(), fmt.Sprintf(format, args...))
}

// declaration is the part of BENCHMARK.json the program reads: the
// names and units of the metrics it must print.
type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(path string) (*declaration, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the result's metrics from the measured values: every
// declared metric exactly once, with its declared unit.
func (r *result) fill(decls []metricDecl, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: tao_local, tao_cluster or linkbench_local")
	seed := flag.Int64("seed", 1, "seed of the dataset and the op sequence")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics (ladder and traced run)")
	flag.Parse()

	// Pinned, not read from the machine, and equal to the client count.
	runtime.GOMAXPROCS(numClients)
	progress("%s nproc=%d GOMAXPROCS=%d clients=%d", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients)

	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullScale, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload and returns the result line.
func run(name string, seed int64, dur time.Duration, traced bool, sc scale, declPath string) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if dur <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	decl, err := readDeclaration(declPath)
	if err != nil {
		return nil, err
	}
	d := datasetSpec(w.kind, sc.datasetBytes, seed).Generate()
	ops := generateOps(w, d, seed, sc)
	for c := range ops {
		if len(ops[c]) == 0 {
			return nil, fmt.Errorf("client %d has no ops", c)
		}
	}
	progress("%s seed %d: %d nodes, %d edges, %d+%d ops generated", w.name, seed, d.NumNodes(), d.NumEdges(), len(ops[0]), len(ops[1]))
	buildProbe()
	if traced {
		return runPerLayer(w, d, ops, dur, sc, seed, decl)
	}
	return runEndToEnd(w, d, ops, dur, sc, seed, decl)
}

// runEndToEnd sets the system up sc.setups times, reporting the median
// set-up time (at the reference memory latency, by the probes before and
// after each) and heap growth, and times the workload on the last one
// with telemetry off.
func runEndToEnd(w workload, d *gen.Dataset, ops [numClients][]op, dur time.Duration, sc scale, seed int64, decl *declaration) (*result, error) {
	var sys *system
	var setupSecs, heapRatios []float64
	// One baseline for every set-up: memory an earlier, closed system
	// still pins is then charged to the next one instead of hidden.
	heapBase := heapInUse()
	for i := 0; i < sc.setups; i++ {
		if sys != nil {
			sys.close()
		}
		before := probeHost()
		t := time.Now()
		s, err := setUp(w, d, sc)
		if err != nil {
			return nil, err
		}
		took := time.Since(t).Seconds()
		host := (before + probeHost()) / 2
		setupSecs = append(setupSecs, took/hostSlowdown(host))
		sys = s
		heapRatios = append(heapRatios, float64(heapInUse()-heapBase)/float64(sys.raw))
		progress("set-up %d of %d: %.3f s with the host at %.0f ns, %.3f s at the reference", i+1, sc.setups, took, host, setupSecs[i])
	}
	defer sys.close()
	r, err := timedRun(w, d, ops, sys, dur, sc, seed, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: r.failed == 0, Attempted: r.executed, Failed: r.failed}
	return res, res.fill(decl.EndToEnd, map[string]float64{
		"setup_s":          median(setupSecs),
		"throughput_ops_s": r.throughput(),
		"footprint_ratio":  float64(sys.footprint) / float64(sys.raw),
		"heap_ratio":       median(heapRatios),
	})
}

// heapInUse returns the bytes in in-use heap spans after two
// collections, the second of which frees what the first one's
// finalizers released.
func heapInUse() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// runPerLayer measures the ladder, then the workload untraced and traced
// for half the window each, and reports every per-layer metric.
func runPerLayer(w workload, d *gen.Dataset, ops [numClients][]op, dur time.Duration, sc scale, seed int64, decl *declaration) (*result, error) {
	values, err := runLadder(seed, sc)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	progress("ladder done")
	half := dur / 2
	sys, err := setUp(w, d, sc)
	if err != nil {
		return nil, err
	}
	untraced, err := timedRun(w, d, ops, sys, half, sc, seed, nil)
	sys.close()
	if err != nil {
		return nil, err
	}
	tracedValues, tr, err := tracedRun(w, d, ops, half, sc, seed, untraced.meanThroughput(), values)
	if err != nil {
		return nil, err
	}
	for k, v := range tracedValues {
		values[k] = v
	}
	st := untraced.stats()
	values["read_p50_us"], values["read_p99_us"] = st.readP50, st.readP99
	// What the gated throughput is made of: the rate as timed, and the
	// host reading it is scaled by.
	values["throughput_raw_ops_s"] = untraced.meanThroughput()
	values["host.mem_latency_ns"] = untraced.probeMedian()
	res := &result{
		Correct:   untraced.failed+tr.failed == 0,
		Attempted: untraced.executed + tr.executed,
		Failed:    untraced.failed + tr.failed,
	}
	return res, res.fill(decl.PerLayer, values)
}
