package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zipg/internal/gen"
	"zipg/internal/telemetry"
)

// harnessSpanOp names the span the harness opens around every op of a
// traced run. The program's own spans are separate roots (the Table 2
// shims thread no context), so the harness span gives the op's wall time
// measured by the same clock as the phases it is compared with.
const harnessSpanOp = "bench.op"

// harvestEvery is how many newly recorded spans trigger a drain of the
// 256-entry flight recorder.
const harvestEvery = 64

// harvester drains the telemetry flight recorder while a traced run is
// in flight and keeps only sums: the recorder is a small ring and a run
// records millions of spans.
type harvester struct {
	drained atomic.Int64 // telemetry.SpanTotal() at the last drain

	before     telemetry.Snapshot // counters when the timed window opened
	delta      telemetry.Snapshot // counter movement over the timed window
	exposition string             // Prometheus text when the window closed

	mu         sync.Mutex
	lastNewest uint64 // SpanID of the newest span already consumed
	overflowed bool   // the ring wrapped between two drains
	phaseNs    map[string]int64
	serveNs    int64   // Σ duration of rpc.serve spans
	serveLat   []int64 // each rpc.serve span's duration
	harnessNs  int64   // Σ duration of harness spans
}

// begin opens the measured window: spans and counter movement from
// before it (set-up, warm-up) are left out.
func (h *harvester) begin() {
	telemetry.ResetSpans()
	*h = harvester{phaseNs: make(map[string]int64), before: telemetry.TakeSnapshot()}
}

// end closes the window, before settle and the correctness checks add
// reads of their own.
func (h *harvester) end() {
	h.harvest()
	h.delta = telemetry.Delta(h.before, telemetry.TakeSnapshot())
	h.exposition = telemetry.Default.Expose()
}

// maybeHarvest drains the recorder once enough new spans have piled up.
// If the other client is already draining, this one carries on.
func (h *harvester) maybeHarvest() {
	if telemetry.SpanTotal()-h.drained.Load() < harvestEvery || !h.mu.TryLock() {
		return
	}
	h.harvestLocked()
	h.mu.Unlock()
}

func (h *harvester) harvest() {
	h.mu.Lock()
	h.harvestLocked()
	h.mu.Unlock()
}

// harvestLocked consumes every span recorded since the last drain. The
// recorder keeps spans in record order, so walking it newest-first up to
// the newest span consumed last time visits each span exactly once.
func (h *harvester) harvestLocked() {
	h.drained.Store(telemetry.SpanTotal())
	spans := telemetry.RecentSpans(0)
	found := h.lastNewest == 0
	for i := range spans {
		if spans[i].SpanID == h.lastNewest {
			spans, found = spans[:i], true
			break
		}
	}
	if !found {
		h.overflowed = true
	}
	if len(spans) > 0 {
		h.lastNewest = spans[0].SpanID
	}
	for i := range spans {
		sp := &spans[i]
		if sp.Op == harnessSpanOp {
			h.harnessNs += int64(sp.Duration)
			continue
		}
		for _, p := range sp.Phases {
			h.phaseNs[p.Name] += p.Ns
		}
		if strings.HasPrefix(sp.Op, "rpc.serve:") {
			h.serveNs += int64(sp.Duration)
			h.serveLat = append(h.serveLat, int64(sp.Duration))
		}
	}
}

// frameBytesRead is the series of RPC frame bytes received. Every frame
// is written once and read once; the read side is counted before the
// call that moved the frame returns.
const frameBytesRead = `zipg_rpc_frame_bytes_total{dir="read"}`

// phases are the span phase names of the query path, in request order.
var phases = []string{"queue", "serialize", "network", "decode", "logstore", "succinct_walk"}

// tracedRun runs the workload once with telemetry on and every span
// recorded, and derives the per-layer metrics of the traced run: counter
// deltas over the timed window divided by ops, and phase self times from
// the spans. untraced is the same workload's untraced throughput in the
// same process, for the tracing overhead.
func tracedRun(w workload, d *gen.Dataset, ops [numClients][]op, dur time.Duration, sc scale, seed int64, untraced float64, rungs map[string]float64) (map[string]float64, *runResult, error) {
	sys, err := setUp(w, d, sc)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()

	// Sampling 1, not a period: the recorder samples by a global tick
	// over every root span start, and an op here starts a fixed number
	// of roots, so a period aliases with the op pattern and can skip one
	// kind of span entirely.
	telemetry.Enable()
	prevSampling := telemetry.SetSpanSampling(1)
	defer func() {
		telemetry.Disable()
		telemetry.SetSpanSampling(prevSampling)
	}()
	h := new(harvester)
	r, err := timedRun(w, d, ops, sys, dur, sc, seed, h)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]float64)
	st := r.stats()
	for k, name := range kindNames {
		m["op."+name+"_p50_us"] = st.kindP50[k]
	}
	m["write_p50_us"], m["write_p99_us"] = st.writeP50, st.writeP99
	m["settle_s"] = r.settle.Seconds()
	m["trace.overhead_frac"] = 1 - r.meanThroughput()/untraced
	h.counts(m, float64(r.executed))
	h.perOp(m, float64(r.executed))
	reconcile(m, ops, sys, sc, rungs)
	return m, r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts turns the counter movement of the timed window into per-op
// counts.
func (h *harvester) counts(m map[string]float64, ops float64) {
	delta, exposition := h.delta, h.exposition
	sum := func(family string) float64 { // over every label set of the family
		var t float64
		for k, v := range delta {
			if k == family || strings.HasPrefix(k, family+"{") {
				t += v
			}
		}
		return t
	}
	m["succinct.psi_steps_per_op"] = sum("zipg_succinct_psi_steps_total") / ops
	m["succinct.isa_lookups_per_op"] = sum("zipg_succinct_isa_lookups_total") / ops
	m["succinct.extract_bytes_per_op"] = sum("zipg_succinct_extract_bytes_total") / ops
	m["store.fragments_per_read_mean"] = delta["zipg_store_fragments_per_read.mean"]
	m["store.rollovers"] = sum("zipg_store_rollovers_total")
	m["store.compactions"] = sum("zipg_store_compactions_total")
	m["store.compaction_pause_p99_us"] = histogramQuantile(exposition, "zipg_compaction_pause_ns", 0.99) / 1e3
	m["store.write_stall_p99_us"] = histogramQuantile(exposition, "zipg_write_stall_ns", 0.99) / 1e3
	m["store.group_commit_batch_mean"] = ratio(sum("zipg_group_commit_records_total"), sum("zipg_group_commit_batches_total"))
	hits := delta[`zipg_logstore_reads_total{result="hit"}`]
	reads := hits + delta[`zipg_logstore_reads_total{result="miss"}`]
	m["logstore.reads_per_op"] = reads / ops
	m["logstore.hit_frac"] = ratio(hits, reads)
	m["rpc.bytes_per_op"] = delta[frameBytesRead] / ops
	m["parallel.speedup"] = ratio(sum("zipg_parallel_task_ns_total"), sum("zipg_parallel_wall_ns_total"))
}

// perOp turns the harvested span sums into per-op phase self times.
// A call span's network phase runs from the request write to the reply,
// so it contains the callee's whole serve span; subtracting the serve
// spans leaves the time on the wire and in the two read loops.
func (h *harvester) perOp(m map[string]float64, ops float64) {
	if h.overflowed {
		fmt.Fprintln(errOut, "warning: span recorder wrapped between drains; phase sums are low")
	}
	h.phaseNs["network"] -= h.serveNs
	var total int64
	for _, p := range phases {
		m["phase."+p+"_us"] = float64(h.phaseNs[p]) / ops / 1e3
		total += h.phaseNs[p]
	}
	m["phase.coverage"] = ratio(float64(total), float64(h.harnessNs))
	m["rpc.calls_per_op"] = float64(len(h.serveLat)) / ops
	m["rpc.server_latency_p50_us"] = 0
	if len(h.serveLat) > 0 {
		m["rpc.server_latency_p50_us"] = percentile(h.serveLat, 0.50) / 1e3
	}
}

// reconcile asks whether the ladder explains the end-to-end latency of
// the two dominant reads: (Ψ steps × cost of a step + ISA lookups × cost
// of a lookup + RPCs × cost of an empty call) ÷ measured mean latency.
// Each kind runs alone on one goroutine, once traced to count and once
// untraced to time; reads on a quiescent store repeat exactly.
func reconcile(m map[string]float64, ops [numClients][]op, sys *system, sc scale, rungs map[string]float64) {
	for _, kind := range []int{kindObjGet, kindAssocRange} {
		var sel []*op
		for c := range ops {
			for i := range ops[c] {
				if ops[c][i].kind == kind && len(sel) < sc.reconOps {
					sel = append(sel, &ops[c][i])
				}
			}
		}
		key := "recon." + kindNames[kind] + "_coverage"
		m[key] = 0
		if len(sel) == 0 {
			continue
		}
		h := new(harvester)
		h.begin()
		for _, o := range sel {
			_, _ = o.exec(sys.store) // answers were checked by the timed run
			h.maybeHarvest()
		}
		h.end()
		telemetry.Disable()
		t := time.Now()
		for _, o := range sel {
			_, _ = o.exec(sys.store)
		}
		elapsed := time.Since(t)
		telemetry.Enable()
		predicted := h.delta["zipg_succinct_psi_steps_total"]*rungs["succinct.psi_step_ns"] +
			h.delta["zipg_succinct_isa_lookups_total"]*rungs["succinct.isa_lookup_ns"] +
			float64(len(h.serveLat))*rungs["rpc.empty_call_us"]*1e3
		m[key] = predicted / float64(elapsed)
		n := float64(len(sel))
		progress("recon %s: %.0f psi steps, %.1f isa lookups, %.2f rpcs per op predict %.1f of %.1f us", kindNames[kind],
			h.delta["zipg_succinct_psi_steps_total"]/n, h.delta["zipg_succinct_isa_lookups_total"]/n, float64(len(h.serveLat))/n, predicted/n/1e3, float64(elapsed)/n/1e3)
	}
}

// histogramQuantile reads the q-quantile of an unlabelled histogram out
// of a Prometheus exposition: the upper bound of the power-of-two bucket
// holding it. Histograms record only while telemetry is enabled, which
// in this process is the traced run alone.
func histogramQuantile(exposition, family string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var buckets []bucket
	prefix := family + `_bucket{le="`
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"} `)
		if end < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:end], 64) // "+Inf" parses as +Inf
		cum, err2 := strconv.ParseFloat(rest[end+3:], 64)
		if err1 == nil && err2 == nil {
			buckets = append(buckets, bucket{le, cum})
		}
	}
	if len(buckets) == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	for _, b := range buckets {
		if b.cum >= q*total && total > 0 {
			return math.Min(b.le, 1<<34) // the overflow bucket starts at 2^33 ns
		}
	}
	return 0
}
