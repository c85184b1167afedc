package temporal

import "zipg/internal/telemetry"

// Telemetry series for the temporal engine: the query taxonomy and the
// subscription delivery path.
const (
	helpTemporalQueries = "Temporal queries executed, by query class."
)

var (
	mQueryRange = telemetry.NewCounterL("zipg_temporal_queries_total", `op="assoc_time_range"`, helpTemporalQueries)
	mQueryCount = telemetry.NewCounterL("zipg_temporal_queries_total", `op="assoc_count_in_window"`, helpTemporalQueries)
	mQueryPath  = telemetry.NewCounterL("zipg_temporal_queries_total", `op="path_in_window"`, helpTemporalQueries)

	// mSubEvents counts events enqueued onto subscriber rings (one per
	// matching subscriber, not one per published event).
	mSubEvents = telemetry.NewCounter("zipg_sub_events_total",
		"Events enqueued onto subscriber rings.")
	// mSubDropped counts events a full subscriber ring overwrote
	// (drop-oldest backpressure).
	mSubDropped = telemetry.NewCounter("zipg_sub_dropped_total",
		"Events dropped from subscriber rings (drop-oldest backpressure).")
	// mSubLagNs accumulates publish-to-delivery latency; divided by
	// zipg_sub_events_total it yields mean delivery lag.
	mSubLagNs = telemetry.NewCounter("zipg_sub_lag_ns_total",
		"Cumulative publish-to-delivery lag of delivered events, in nanoseconds.")
)

// telemetryEnabled gates the per-delivery clock reads in observeLag.
func telemetryEnabled() bool { return telemetry.Enabled() }

// RecordPathQuery counts a path_in_window query executed outside the
// engine — the cluster's distributed BFS coordinator drives
// BFSInWindow directly and reports here so the per-op taxonomy stays
// complete.
func RecordPathQuery() { mQueryPath.Inc() }
