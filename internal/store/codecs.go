package store

import (
	"fmt"
	"strings"

	"zipg/internal/succinct"
)

// FragmentCodecs describes one compressed fragment for the admin report
// (zipg-cli codecs, /debug/codecs): which fragment, the α its succinct
// stores sample at, the reads its primary partition has drawn since the
// last compaction, and every encoded region.
type FragmentCodecs struct {
	// Fragment names the shard: "primary/<p>" or "frozen/<gen>".
	Fragment string
	// Alpha is the sampling rate the fragment was built with.
	Alpha int
	// Reads counts reads attributed to this primary partition since the
	// last compaction (always 0 for frozen generations, which have no
	// partition of their own).
	Reads int64
	// Regions lists the fragment's encoded regions.
	Regions []succinct.RegionCodec
}

// CodecReport describes every compressed fragment's region sizes and
// sampling rate — the data behind the codecs admin surface.
func (s *Store) CodecReport() []FragmentCodecs {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FragmentCodecs, 0, len(s.primaries)+len(s.frozen))
	for p, sh := range s.primaries {
		out = append(out, FragmentCodecs{
			Fragment: fmt.Sprintf("primary/%d", p),
			Alpha:    sh.SamplingRate(),
			Reads:    s.shardReads[p].Load(),
			Regions:  sh.CodecReport(),
		})
	}
	for g, f := range s.frozen {
		if f.raw != nil {
			// Sealed but not yet compressed: no regions to report.
			out = append(out, FragmentCodecs{
				Fragment: fmt.Sprintf("frozen/%d (raw, awaiting compression)", g),
			})
			continue
		}
		out = append(out, FragmentCodecs{
			Fragment: fmt.Sprintf("frozen/%d", g),
			Alpha:    f.shard.SamplingRate(),
			Regions:  f.shard.CodecReport(),
		})
	}
	return out
}

// FormatCodecReport renders a report as the text table the codecs admin
// surfaces (zipg-cli codecs, /debug/codecs) print: one line per region
// with its encoding, element count, encoded bytes and bits per row
// served — and, for a monotone region (Ψ above all), the share of its
// blocks that are payload-free runs, the share that write a directory
// record and the directory/payload split of its bytes — grouped under
// per-fragment headers that carry α and the partition's accumulated
// reads.
func FormatCodecReport(report []FragmentCodecs) string {
	var b strings.Builder
	b.WriteString("# per-shard region report: fragment (alpha, reads) then one line per encoded region\n")
	for _, fc := range report {
		fmt.Fprintf(&b, "%s  alpha=%d  reads=%d\n", fc.Fragment, fc.Alpha, fc.Reads)
		for _, rc := range fc.Regions {
			fmt.Fprintf(&b, "  %-13s %-9s %9d elems %10d bytes  %6.3f bits/row",
				rc.Region, rc.Encoding, rc.Elems, rc.Bytes, rc.BitsPerRow)
			if rc.DirBytes > 0 {
				fmt.Fprintf(&b, "  run-blocks=%.1f%% records=%.1f%% dir=%dB payload=%dB",
					100*rc.RunBlockShare, 100*rc.RecordShare, rc.DirBytes, rc.PayloadBytes)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// TunedAlphas returns the per-partition α chosen by the last
// compaction (nil before the first compaction). Auto-tuned stores see
// the ladder's choices; others see the configured base α everywhere.
func (s *Store) TunedAlphas() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tunedAlpha == nil {
		return nil
	}
	return append([]int(nil), s.tunedAlpha...)
}

// ShardReads returns the per-partition read counts accumulated since
// the last compaction — the α auto-tuner's input signal.
func (s *Store) ShardReads() []int64 {
	out := make([]int64, len(s.shardReads))
	for p := range s.shardReads {
		out[p] = s.shardReads[p].Load()
	}
	return out
}
