package succinct

import (
	"zipg/internal/bitutil"
	"zipg/internal/telemetry"
)

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

	// Batch kernels (ExtractBatch/WalkBatch). mBatchRequests counts items
	// that rode a batch; the cursor pair makes the sharing win observable:
	// reuse is Ψ evaluations served from an already-decoded block of a
	// shared per-bucket cursor, regions is the block decodes actually paid
	// — a scalar loop would pay one delta re-sum per evaluation instead.
	mBatchRequests = telemetry.NewCounterL("zipg_batch_requests_total", `layer="succinct"`,
		"Items requested through batch kernels, by layer.")
	mBatchCursorReuse = telemetry.NewCounter("zipg_batch_cursor_reuse_total",
		"Psi evaluations served from the per-batch decoded-block cache in batch kernels.")
	mBatchRegions = telemetry.NewCounter("zipg_batch_regions_touched_total",
		"Psi block decodes (distinct NPA regions touched) by batch kernels.")

	// Codec layer: which codec each built region landed on and what it
	// cost to decide. One regions increment per region built under a
	// codec policy (SA samples, ISA samples, layout offset vectors), so
	// the exposition shows the live codec mix without walking shards.
	mCodecRegionsLegacy = telemetry.NewCounterL("zipg_codec_regions_total", `codec="legacy"`,
		"Regions encoded at build/compact time, by chosen codec.")
	mCodecRegionsS8b = telemetry.NewCounterL("zipg_codec_regions_total", `codec="simple8b"`,
		"Regions encoded at build/compact time, by chosen codec.")
	mCodecRegionsVarint = telemetry.NewCounterL("zipg_codec_regions_total", `codec="varint"`,
		"Regions encoded at build/compact time, by chosen codec.")
	mCodecBytesLegacy = telemetry.NewCounterL("zipg_codec_bytes_total", `codec="legacy"`,
		"Encoded bytes produced at build/compact time, by chosen codec.")
	mCodecBytesS8b = telemetry.NewCounterL("zipg_codec_bytes_total", `codec="simple8b"`,
		"Encoded bytes produced at build/compact time, by chosen codec.")
	mCodecBytesVarint = telemetry.NewCounterL("zipg_codec_bytes_total", `codec="varint"`,
		"Encoded bytes produced at build/compact time, by chosen codec.")
	mCodecTrialNs = telemetry.NewCounter("zipg_codec_trial_ns_total",
		"Nanoseconds spent trial-encoding region samples to choose codecs.")
)

// codecCounters returns the (regions, bytes) counter pair for a codec.
func codecCounters(id bitutil.CodecID) (*telemetry.Counter, *telemetry.Counter) {
	switch id {
	case bitutil.CodecLegacy:
		return mCodecRegionsLegacy, mCodecBytesLegacy
	case bitutil.CodecSimple8b:
		return mCodecRegionsS8b, mCodecBytesS8b
	case bitutil.CodecVarint:
		return mCodecRegionsVarint, mCodecBytesVarint
	}
	return nil, nil
}
