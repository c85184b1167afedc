package succinct

import "zipg/internal/bitutil"

// RegionCodec describes how one region of a store is encoded, for the
// region-size report surfaced through Store.CodecReport / zipg-cli
// codecs.
type RegionCodec struct {
	// Region names the encoded region: "psi", "marks" (the sampled
	// rows), "sa", "isa".
	Region string
	// Encoding names the type that holds the region: "monotone"
	// (bitutil.MonotoneVector), "packed" (bitutil.PackedVector) or
	// "sparse" (bitutil.SparseSet).
	Encoding string
	// Elems is the region's element count (the members of "marks").
	Elems int
	// Bytes is the region's encoded in-memory footprint.
	Bytes int
	// BitsPerRow is Bytes in bits over the rows the region serves: the
	// suffix-array rows of its store for Ψ and the sample arrays, its
	// own elements for an offset column.
	BitsPerRow float64

	// The last four are set for monotone regions: the share of blocks
	// that need no delta payload — +1 runs, read from a directory record
	// alone — the share that write a directory record (the rest continue
	// the record of the run they are in), and the split of Bytes between
	// directory (marks and records) and payload. Counted when the vector
	// was built or loaded.
	RunBlockShare float64
	RecordShare   float64
	DirBytes      int
	PayloadBytes  int
}

// region fills in the fields every encoding has.
func region(name, encoding string, elems, bytes, rows int) RegionCodec {
	return RegionCodec{
		Region:     name,
		Encoding:   encoding,
		Elems:      elems,
		Bytes:      bytes,
		BitsPerRow: float64(bytes) * 8 / float64(max(rows, 1)),
	}
}

// monotoneRegion summarizes mv, which serves rows rows, under name.
func monotoneRegion(name string, rows int, mv *bitutil.MonotoneVector) RegionCodec {
	st := mv.Stats()
	rc := region(name, "monotone", mv.Len(), st.DirBytes+st.PayloadBytes, rows)
	if st.Blocks > 0 {
		rc.RunBlockShare = float64(st.EmptyBlocks) / float64(st.Blocks)
		rc.RecordShare = float64(st.Records) / float64(st.Blocks)
		rc.DirBytes, rc.PayloadBytes = st.DirBytes, st.PayloadBytes
	}
	return rc
}

// RegionCodecs reports the encoding and size of each region (Ψ, the
// sampled rows, SA samples, ISA samples). With the bucket tables their
// bytes are CompressedSize.
// An anchored store has no sampled-row set: its samples are a bucket's
// rows.
func (s *Store) RegionCodecs() []RegionCodec {
	out := []RegionCodec{monotoneRegion("psi", s.n, s.psi)}
	if s.saMarks != nil {
		out = append(out, region("marks", "sparse", s.saMarks.Len(), s.saMarks.SizeBytes(), s.n))
	}
	sa, isa := s.samples()
	return append(out,
		region("sa", "packed", sa.Len(), sa.SizeBytes(), s.n),
		region("isa", "packed", isa.Len(), isa.SizeBytes(), s.n))
}

// OffsetsRegion builds the report entry for one monotone column held
// outside the store (the layout's NodeFile offsets and EdgeFile record
// starts and property offsets); its rows are its own elements.
func OffsetsRegion(name string, mv *bitutil.MonotoneVector) RegionCodec {
	return monotoneRegion(name, mv.Len(), mv)
}

// PackedRegion is OffsetsRegion for a packed column (the EdgeFile's
// timestamps and destinations).
func PackedRegion(name string, pv *bitutil.PackedVector) RegionCodec {
	return region(name, "packed", pv.Len(), pv.SizeBytes(), pv.Len())
}
