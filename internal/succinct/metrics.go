package succinct

import "zipg/internal/telemetry"

// Kernel telemetry: the quantities the streaming kernels exist to
// shrink. Counters are batched — hot loops accumulate locally and add
// once per operation, and every mutator is a no-op while telemetry is
// disabled — so /metrics can show the Ψ walks a cursor or walker
// eliminates without taxing the walks themselves.
var (
	// mPsiSteps counts Ψ evaluations on decode paths (ISA anchor walks,
	// extract/walk byte steps, SA locates). One Extract of n bytes is
	// ~α/2 + n steps; a Walker re-uses its row so consecutive reads of
	// one record pay the anchor walk once.
	mPsiSteps = telemetry.NewCounter("zipg_succinct_psi_steps_total",
		"Psi (NPA) steps executed by extract/locate kernels.")

	// mISALookups counts ISA sample anchor lookups — one per Extract
	// before the walker, one per record read after.
	mISALookups = telemetry.NewCounter("zipg_succinct_isa_lookups_total",
		"ISA sample lookups anchoring suffix-array walks.")

	// mExtractBytes counts bytes materialized out of the compressed
	// representation by Extract/ExtractAppend/Walker reads.
	mExtractBytes = telemetry.NewCounter("zipg_succinct_extract_bytes_total",
		"Bytes decoded out of compressed stores by extract kernels.")
)
