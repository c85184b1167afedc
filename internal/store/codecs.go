package store

import (
	"fmt"
	"strings"

	"zipg/internal/succinct"
)

// FragmentCodecs describes one compressed fragment for the admin report
// (zipg-cli codecs, /debug/codecs): which fragment, where its NodeFile
// store is sampled, and every encoded region.
type FragmentCodecs struct {
	// Fragment names the shard: "primary/<p>" or "frozen/<gen>".
	Fragment string
	// Sampling is where the fragment's NodeFile store is sampled:
	// "alpha=<α>", or "anchored 0x<byte>" for a one-property NodeFile
	// sampled at its records' delimiter. (The EdgeFile's store is always
	// sampled at its property lists' starts.) Empty for a fragment not
	// yet compressed.
	Sampling string
	// Regions lists the fragment's encoded regions.
	Regions []succinct.RegionCodec
}

// CodecReport describes every compressed fragment's region sizes and
// NodeFile sampling — the data behind the codecs admin surface.
func (s *Store) CodecReport() []FragmentCodecs {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FragmentCodecs, 0, len(s.primaries)+len(s.gens))
	for p, sh := range s.primaries {
		out = append(out, FragmentCodecs{
			Fragment: fmt.Sprintf("primary/%d", p),
			Sampling: sh.NodeSampling(),
			Regions:  sh.CodecReport(),
		})
	}
	for g, f := range s.gens[:s.curGenLocked()] {
		if f.log != nil {
			// Sealed but not yet compressed: no regions to report.
			out = append(out, FragmentCodecs{
				Fragment: fmt.Sprintf("frozen/%d (raw, awaiting compression)", g),
			})
			continue
		}
		out = append(out, FragmentCodecs{
			Fragment: fmt.Sprintf("frozen/%d", g),
			Sampling: f.shard.NodeSampling(),
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
// per-fragment headers that say where the NodeFile is sampled.
func FormatCodecReport(report []FragmentCodecs) string {
	var b strings.Builder
	b.WriteString("# per-shard region report: fragment (NodeFile sampling) then one line per encoded region\n")
	for _, fc := range report {
		b.WriteString(fc.Fragment)
		if fc.Sampling != "" {
			b.WriteString("  " + fc.Sampling)
		}
		b.WriteString("\n")
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
