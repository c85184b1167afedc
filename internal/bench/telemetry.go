package bench

import (
	"fmt"
	"strings"

	"zipg/internal/telemetry"
)

// Every benchmark run doubles as a paper-figure validation: the harness
// snapshots the telemetry registry before and after each measured
// workload and reports the deltas (store op counts, fanned-update
// fragment counts, LogStore hit rate, Succinct bytes extracted) next to
// the throughput numbers, so e.g. Figure 10's fragments-per-read can be
// read straight off a bench run. No figure runs the cluster, so there
// are no RPC series to report.

// telemetryCapture brackets one measured workload.
type telemetryCapture struct {
	before telemetry.Snapshot
	wasOn  bool
}

// startTelemetryCapture enables telemetry (restored by finish) and
// snapshots the registry.
func startTelemetryCapture() *telemetryCapture {
	c := &telemetryCapture{wasOn: telemetry.SetEnabled(true)}
	c.before = telemetry.TakeSnapshot()
	return c
}

// finish computes the per-workload delta and renders it as note lines
// (empty when the workload never touched an instrumented ZipG path —
// the baselines report nothing).
func (c *telemetryCapture) finish(label string) []string {
	delta := telemetry.Delta(c.before, telemetry.TakeSnapshot())
	telemetry.SetEnabled(c.wasOn)
	return telemetryNotes(label, delta)
}

// sumPrefix adds up every series delta whose name starts with prefix.
func sumPrefix(d telemetry.Snapshot, prefix string) float64 {
	var total float64
	for k, v := range d {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// telemetryNotes renders one workload's telemetry delta as note lines.
func telemetryNotes(label string, d telemetry.Snapshot) []string {
	storeOps := sumPrefix(d, "zipg_store_ops_total")
	if storeOps == 0 {
		return nil
	}
	var parts []string
	add := func(format string, args ...any) {
		parts = append(parts, fmt.Sprintf(format, args...))
	}
	add("store_ops=%.0f", storeOps)
	if m, ok := d["zipg_store_fragments_per_read.mean"]; ok {
		add("avg_fragments_per_read=%.2f", m)
	}
	hits := d[`zipg_logstore_reads_total{result="hit"}`]
	misses := d[`zipg_logstore_reads_total{result="miss"}`]
	if hits+misses > 0 {
		add("logstore_hit_rate=%.2f", hits/(hits+misses))
	}
	if b := d["zipg_store_succinct_bytes_total"]; b > 0 {
		add("succinct_KB=%.1f", b/1024)
	}
	if r := d["zipg_store_rollovers_total"]; r > 0 {
		add("rollovers=%.0f", r)
	}
	return []string{fmt.Sprintf("telemetry[%s]: %s", label, strings.Join(parts, " "))}
}
