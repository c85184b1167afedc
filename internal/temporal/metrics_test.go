package temporal_test

import (
	"strings"
	"testing"

	"zipg"
	"zipg/internal/telemetry"
)

// TestTemporalMetricNames locks the temporal-layer metric names into
// the default registry's exposition so renames fail CI. Real traffic
// is generated first so the counters carry non-zero samples.
func TestTemporalMetricNames(t *testing.T) {
	was := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(was)

	g := buildSubGraph(t, 8, 2)
	defer g.Close()
	sub := g.Subscribe(zipg.SubscriptionFilter{}, 16)
	defer sub.Close()
	eng := g.Temporal()

	for i := 0; i < 6; i++ {
		if err := g.AppendEdge(zipg.Edge{Src: int64(i % 4), Dst: int64(4 + i%4), Type: 1, Timestamp: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.AssocTimeRange(0, 1, 0, 100, 0)
	eng.AssocCountInWindow(0, 1, 0, 100)
	eng.PathInWindow(0, 5, 0, 100, 3)
	sub.Poll(0)

	expo := telemetry.Default.Expose()
	for _, want := range []string{
		"zipg_temporal_queries_total",
		"zipg_sub_events_total",
		"zipg_sub_dropped_total",
		"zipg_sub_lag_ns_total",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// The query counter is labeled per op; lock the op labels too.
	for _, op := range []string{"assoc_time_range", "assoc_count_in_window", "path_in_window"} {
		if !strings.Contains(expo, `op="`+op+`"`) {
			t.Errorf("exposition missing zipg_temporal_queries_total op=%q label", op)
		}
	}
}
