package succinct

import (
	"zipg/internal/bitutil"
	"zipg/internal/telemetry"
)

// RegionCodec describes how one region of a store is encoded, for the
// codec report surfaced through Store.CodecReport / zipg-cli codecs.
type RegionCodec struct {
	// Region names the encoded region: "psi", "marks" (the sampled
	// rows), "sa", "isa".
	Region string
	// Codec is the name of the region's codec ("sparse" for the sampled
	// rows, which are a bitutil.SparseSet and no Seq).
	Codec string
	// Elems is the region's element count (the members of "marks").
	Elems int
	// Bytes is the region's encoded in-memory footprint.
	Bytes int
	// BitsPerRow is Bytes in bits over the rows the region serves: the
	// suffix-array rows of its store for Ψ and the sample arrays, its
	// own elements for an offset column.
	BitsPerRow float64
	// DecodeNs is the measured DecodeAll cost per element, sampled at
	// report time.
	DecodeNs float64
	// Trials holds the build-time trial measurements that chose the
	// codec; empty for Ψ, forced policies and loaded stores.
	Trials []bitutil.TrialResult

	// The last four are set for regions held as a
	// bitutil.MonotoneVector (Ψ always): the share of blocks that need
	// no delta payload — +1 runs, read from a directory record alone —
	// the share that write a directory record (the rest continue the
	// record of the run they are in), and the split of Bytes between
	// directory (marks and records) and payload. Counted when the vector
	// was built or loaded.
	RunBlockShare float64
	RecordShare   float64
	DirBytes      int
	PayloadBytes  int
}

// regionReport summarizes seqs (all encoded with one codec), which
// together serve rows rows, under name.
func regionReport(name string, rows int, trials []bitutil.TrialResult, seqs ...bitutil.Seq) RegionCodec {
	rc := RegionCodec{Region: name, Trials: trials}
	var largest bitutil.Seq
	var st bitutil.MonotoneStats
	for _, q := range seqs {
		rc.Elems += q.Len()
		rc.Bytes += q.SizeBytes()
		if largest == nil || q.Len() > largest.Len() {
			largest = q
		}
		if mv, ok := q.(*bitutil.MonotoneVector); ok {
			v := mv.Stats()
			st.Blocks += v.Blocks
			st.EmptyBlocks += v.EmptyBlocks
			st.Records += v.Records
			st.DirBytes += v.DirBytes
			st.PayloadBytes += v.PayloadBytes
		}
	}
	if largest != nil {
		rc.Codec = bitutil.CodecName(largest.CodecID())
		rc.DecodeNs = bitutil.MeasureDecodeNs(largest)
	}
	rc.BitsPerRow = float64(rc.Bytes) * 8 / float64(max(rows, 1))
	if st.Blocks > 0 {
		rc.RunBlockShare = float64(st.EmptyBlocks) / float64(st.Blocks)
		rc.RecordShare = float64(st.Records) / float64(st.Blocks)
		rc.DirBytes, rc.PayloadBytes = st.DirBytes, st.PayloadBytes
	}
	return rc
}

// RegionCodecs reports the codec, size and measured decode speed of each
// encoded region (Ψ, the sampled rows, SA samples, ISA samples). With
// the bucket tables and the row directory their bytes are CompressedSize.
func (s *Store) RegionCodecs() []RegionCodec {
	psi := make([]bitutil.Seq, len(s.psi))
	for i, p := range s.psi {
		psi[i] = p
	}
	return []RegionCodec{
		regionReport("psi", s.n, nil, psi...),
		{
			Region:     "marks",
			Codec:      "sparse",
			Elems:      s.saMarks.Len(),
			Bytes:      s.saMarks.SizeBytes(),
			BitsPerRow: float64(s.saMarks.SizeBytes()) * 8 / float64(s.n),
		},
		regionReport("sa", s.n, s.saMeta.trials, s.saSamples),
		regionReport("isa", s.n, s.isaMeta.trials, s.isaSamples),
	}
}

// SeqRegionCodec builds the report entry for one externally held region
// (the layout offset columns, encoded by core under the same policy);
// its rows are its own elements.
func SeqRegionCodec(name string, q bitutil.Seq, trials []bitutil.TrialResult) RegionCodec {
	return regionReport(name, q.Len(), trials, q)
}

// CountCodecRegion bumps the codec build metrics for one region encoded
// under a codec policy (the sample arrays here, the offset columns in
// core; Ψ has no codec to choose).
func CountCodecRegion(q bitutil.Seq) {
	if !telemetry.Enabled() {
		return
	}
	if regions, sz := codecCounters(q.CodecID()); regions != nil {
		regions.Inc()
		sz.Add(int64(q.SizeBytes()))
	}
}
