package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"zipg/internal/workloads"
)

// toyScale runs every workload, the ladder and the traced run in a few
// seconds: 1 MiB datasets and op sequences a twentieth as long.
var toyScale = scale{
	datasetBytes: 1 << 20,
	ladderBytes:  256 << 10,
	opsDivisor:   20,
	sweepNodes:   50,
	setups:       2,
	lbThreshold:  16 << 10,
	ladderCalls:  400,
	reconOps:     50,
}

const declPath = "../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// exactCounts are the per-layer metrics that are counts made by the
// program or sizes of built structures. On a workload without rollovers
// (a traced run is one pass of a fixed sequence, and each client's ops
// touch only its own nodes) they must come out identical on every run
// of a seed.
var exactCounts = []string{
	"succinct.psi_steps_per_op", "succinct.isa_lookups_per_op", "succinct.extract_bytes_per_op",
	"rpc.calls_per_op", "logstore.reads_per_op", "store.rollovers", "store.fragments_per_read_mean",
	"succinct.bytes_per_input_byte", "core.footprint_ratio", "rpc.bytes_per_empty_call",
}

func smokeRun(t *testing.T, name string, traced bool) *result {
	t.Helper()
	res, err := run(name, 1, 300*time.Millisecond, traced, toyScale, declPath)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// checkMetrics asserts that the result line carries every declared
// metric exactly once, under a well-formed name, with a finite value.
func checkMetrics(t *testing.T, res *result, decls []metricDecl) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Metrics) != len(decls) {
		t.Errorf("%d metrics printed, %d declared", len(parsed.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := parsed.Metrics[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q is malformed", d.Name)
		case !ok:
			t.Errorf("metric %s is declared but not printed", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite", d.Name)
		}
	}
}

func TestSmoke(t *testing.T) {
	errOut = io.Discard
	defer func() { errOut = os.Stderr }()
	decl, err := readDeclaration(declPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			e2e := smokeRun(t, w.name, false)
			checkMetrics(t, e2e, decl.EndToEnd)
			for _, d := range decl.EndToEnd {
				// heap_ratio is exempt at toy scale: a 1 MiB store is
				// smaller than the garbage of the runs before it.
				if e2e.Metrics[d.Name].Value <= 0 && d.Name != "heap_ratio" {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			first := smokeRun(t, w.name, true)
			checkMetrics(t, first, decl.PerLayer)
			if calls := first.Metrics["rpc.calls_per_op"].Value; w.cluster != (calls > 0) {
				t.Errorf("rpc.calls_per_op = %v on a workload with cluster=%v", calls, w.cluster)
			}
			if w.background {
				return
			}
			second := smokeRun(t, w.name, true)
			for _, name := range exactCounts {
				if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v; a count on a workload without rollovers must repeat exactly", name, a, b)
				}
			}
		})
	}
}

// TestDeclarationMatchesWorkloads keeps BENCHMARK.json's workload list
// and the program's in step.
func TestDeclarationMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile(declPath)
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, implemented %q", i, decl.Workloads[i].Name, w.name)
		}
	}
}

func TestDeleteOnlyAddedNodes(t *testing.T) {
	ops := []workloads.Op{
		{Kind: workloads.OpObjDel, ID: 7},
		{Kind: workloads.OpObjAdd, ID: 100},
		{Kind: workloads.OpObjAdd, ID: 101},
		{Kind: workloads.OpObjGet, ID: 7},
		{Kind: workloads.OpObjDel, ID: 3},
		{Kind: workloads.OpObjDel, ID: 4},
	}
	deleteOnlyAddedNodes(ops)
	if ops[0].ID < 1<<40 {
		t.Errorf("an obj_del before any obj_add must target a fresh ID, got %d", ops[0].ID)
	}
	if ops[4].ID != 101 || ops[5].ID != 100 {
		t.Errorf("obj_del targets %d, %d; want the added nodes 101, 100", ops[4].ID, ops[5].ID)
	}
	if ops[3].ID != 7 {
		t.Errorf("a read was retargeted to %d", ops[3].ID)
	}
}

func TestHistogramQuantile(t *testing.T) {
	exposition := "# TYPE zipg_write_stall_ns histogram\n" +
		"zipg_write_stall_ns_bucket{le=\"1024\"} 90\n" +
		"zipg_write_stall_ns_bucket{le=\"4096\"} 99\n" +
		"zipg_write_stall_ns_bucket{le=\"65536\"} 100\n" +
		"zipg_write_stall_ns_bucket{le=\"+Inf\"} 100\n" +
		"zipg_write_stall_ns_sum 123\nzipg_write_stall_ns_count 100\n" +
		"zipg_other_ns_bucket{le=\"+Inf\"} 0\n"
	for _, c := range []struct {
		family string
		q      float64
		want   float64
	}{
		{"zipg_write_stall_ns", 0.50, 1024},
		{"zipg_write_stall_ns", 0.99, 4096},
		{"zipg_write_stall_ns", 1.00, 65536},
		{"zipg_other_ns", 0.99, 0},
		{"zipg_absent_ns", 0.99, 0},
	} {
		if got := histogramQuantile(exposition, c.family, c.q); got != c.want {
			t.Errorf("histogramQuantile(%s, %v) = %v, want %v", c.family, c.q, got, c.want)
		}
	}
}
