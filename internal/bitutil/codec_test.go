package bitutil

import (
	"math/rand"
	"reflect"
	"testing"
)

// codecTestPatterns are the value shapes the codec suite exercises:
// each generator returns a raw (not necessarily monotone) sequence.
// Monotone variants are derived by prefix-summing the values.
var codecTestPatterns = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []uint64
}{
	{"zeros", func(n int, _ *rand.Rand) []uint64 { return make([]uint64, n) }},
	{"ones", func(n int, _ *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}},
	{"small_random", func(n int, rng *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(16))
		}
		return out
	}},
	{"wide_random", func(n int, rng *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = rng.Uint64() >> (1 + rng.Intn(40))
		}
		return out
	}},
	{"bursty", func(n int, rng *rand.Rand) []uint64 {
		// Long runs of tiny deltas punctuated by huge spikes — the
		// adversarial shape for selector-based packers.
		out := make([]uint64, n)
		for i := range out {
			if rng.Intn(32) == 0 {
				out[i] = uint64(rng.Intn(1 << 40))
			} else {
				out[i] = uint64(rng.Intn(3))
			}
		}
		return out
	}},
	{"near_s8b_limit", func(n int, rng *rand.Rand) []uint64 {
		// Values just under and at 2^60-1, the widest simple8b payload.
		out := make([]uint64, n)
		for i := range out {
			out[i] = (uint64(1)<<60 - 1) - uint64(rng.Intn(4))
		}
		return out
	}},
	{"alternating_widths", func(n int, _ *rand.Rand) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			if i%2 == 0 {
				out[i] = 1
			} else {
				out[i] = 1 << 30
			}
		}
		return out
	}},
}

// codecTestSizes exercises empty, single, block-fringe and multi-block
// lengths (SeqBlockSize = 16).
var codecTestSizes = []int{0, 1, 15, 16, 17, 31, 33, 100, 1000}

// prefixSum lifts raw values to a monotone sequence, capping each delta
// so the running sum cannot overflow (or exceed what every codec can
// represent) even for the widest patterns.
func prefixSum(vals []uint64) []uint64 {
	out := make([]uint64, len(vals))
	cap := uint64(1)<<59 - 1
	if n := uint64(len(vals)); n > 0 {
		cap /= n
	}
	var sum uint64
	for i, v := range vals {
		if v > cap {
			v = cap
		}
		sum += v
		out[i] = sum
	}
	return out
}

// checkSeq verifies every Seq accessor against the reference values.
func checkSeq(t *testing.T, s Seq, vals []uint64, mono bool) {
	t.Helper()
	if s.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(vals))
	}
	if s.Monotone() != mono {
		t.Fatalf("Monotone = %v, want %v", s.Monotone(), mono)
	}
	if got := s.DecodeAll(nil); !reflect.DeepEqual(got, append([]uint64{}, vals...)) && len(vals) > 0 {
		t.Fatalf("DecodeAll mismatch:\n got %v\nwant %v", got, vals)
	}
	for i, want := range vals {
		if got := s.Get(i); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	var blk [SeqBlockSize]uint64
	for b := 0; b*SeqBlockSize < len(vals); b++ {
		cnt := s.DecodeBlockInto(b, &blk)
		for j := 0; j < cnt; j++ {
			if blk[j] != vals[b*SeqBlockSize+j] {
				t.Fatalf("DecodeBlockInto(%d)[%d] = %d, want %d", b, j, blk[j], vals[b*SeqBlockSize+j])
			}
		}
	}
	cur := NewSeqCursor(s)
	for i, want := range vals {
		if got := cur.Next(); got != want {
			t.Fatalf("cursor[%d] = %d, want %d", i, got, want)
		}
	}
	if mono && len(vals) > 0 {
		for _, target := range []uint64{0, vals[0], vals[len(vals)/2], vals[len(vals)-1], vals[len(vals)-1] + 1} {
			want := len(vals)
			for i, v := range vals {
				if v >= target {
					want = i
					break
				}
			}
			if got := s.SearchGE(0, s.Len(), target); got != want {
				t.Fatalf("SearchGE(%d) = %d, want %d", target, got, want)
			}
		}
	}
}

// TestCodecRoundTrip runs the full differential suite: every codec ×
// pattern × size × {raw, monotone}, checking all Seq accessors and the
// tagged-container serial round-trip.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, pat := range codecTestPatterns {
		for _, n := range codecTestSizes {
			raw := pat.gen(n, rng)
			mono := prefixSum(raw)
			for _, c := range AllCodecs() {
				for _, tc := range []struct {
					vals []uint64
					mono bool
				}{{raw, false}, {mono, true}} {
					var width uint
					if !tc.mono && n > 0 {
						width = WidthFor(maxVal(tc.vals))
					}
					s := c.Encode(tc.vals, tc.mono, width)
					if s == nil {
						// Unrepresentable for this codec (e.g. simple8b
						// at ≥2^60); the policy layer falls back.
						continue
					}
					checkSeq(t, s, tc.vals, tc.mono)

					buf := AppendSeq(nil, s)
					back, read, err := DecodeSeq(buf)
					if err != nil {
						t.Fatalf("%s/%s n=%d mono=%v: DecodeSeq: %v", pat.name, c.Name(), n, tc.mono, err)
					}
					if read != len(buf) {
						t.Fatalf("%s/%s: DecodeSeq consumed %d of %d bytes", pat.name, c.Name(), read, len(buf))
					}
					if back.CodecID() != c.ID() {
						t.Fatalf("%s/%s: round-trip codec = %v", pat.name, c.Name(), back.CodecID())
					}
					checkSeq(t, back, tc.vals, tc.mono)
				}
			}
		}
	}
}

func maxVal(vals []uint64) uint64 {
	var m uint64
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}

// TestEncodeWithPolicyForced verifies forced policies pick their codec
// (falling back to legacy only when unrepresentable) and that auto
// picks the trial winner.
func TestEncodeWithPolicyForced(t *testing.T) {
	vals := prefixSum(codecTestPatterns[2].gen(500, rand.New(rand.NewSource(1))))
	for _, tc := range []struct {
		policy CodecPolicy
		want   CodecID
	}{
		{CodecForceLegacy, CodecLegacy},
		{CodecForceSimple8b, CodecSimple8b},
		{CodecForceVarint, CodecVarint},
	} {
		s, trials := EncodeWithPolicy(vals, true, 0, tc.policy)
		if s.CodecID() != tc.want {
			t.Errorf("policy %v: codec = %v, want %v", tc.policy, s.CodecID(), tc.want)
		}
		if len(trials) != 0 {
			t.Errorf("policy %v: forced encode ran %d trials", tc.policy, len(trials))
		}
		checkSeq(t, s, vals, true)
	}

	s, trials := EncodeWithPolicy(vals, true, 0, CodecAuto)
	if len(trials) == 0 {
		t.Fatal("auto policy ran no trials")
	}
	var chosen *TrialResult
	for i := range trials {
		if trials[i].Chosen {
			chosen = &trials[i]
		}
	}
	if chosen == nil || chosen.Codec != s.CodecID() {
		t.Fatalf("auto policy: chosen trial %+v vs seq codec %v", chosen, s.CodecID())
	}
	checkSeq(t, s, vals, true)
}

// TestSimple8bOverflowFallsBack: values ≥ 2^60 don't fit any simple8b
// selector; the codec must decline and the forced policy must fall
// back to legacy rather than corrupt data.
func TestSimple8bOverflowFallsBack(t *testing.T) {
	vals := []uint64{1, 2, 1 << 60, 4}
	s8b, _ := CodecByID(CodecSimple8b)
	if s := s8b.Encode(vals, false, WidthFor(1<<60)); s != nil {
		t.Fatal("simple8b accepted a 2^60 value")
	}
	s, _ := EncodeWithPolicy(vals, false, WidthFor(1<<60), CodecForceSimple8b)
	if s.CodecID() != CodecLegacy {
		t.Fatalf("forced simple8b on overflow values: codec = %v, want legacy fallback", s.CodecID())
	}
	checkSeq(t, s, vals, false)
}

// TestChooseCodecPrefersSmallest locks the size-dominant selection rule:
// a codec whose encoding is more than the tie band above the smallest
// candidate can never win on speed alone.
func TestChooseCodecPrefersSmallest(t *testing.T) {
	// Small deltas: simple8b and varint both beat 64-bit-wide legacy
	// packing by a large margin on a monotone ramp with tiny gaps.
	vals := make([]uint64, 4096)
	base := uint64(1) << 50 // forces legacy to 51-bit entries
	for i := range vals {
		base += uint64(i%3 + 1)
		vals[i] = base
	}
	_, trials := ChooseCodec(vals, true, 0)
	var chosen, smallest *TrialResult
	for i := range trials {
		if trials[i].Chosen {
			chosen = &trials[i]
		}
		if smallest == nil || trials[i].Bytes < smallest.Bytes {
			smallest = &trials[i]
		}
	}
	if chosen == nil {
		t.Fatal("no trial marked chosen")
	}
	if float64(chosen.Bytes) > sizeTieBand*float64(smallest.Bytes) {
		t.Fatalf("chosen codec %s (%dB) outside the tie band of smallest %s (%dB)",
			chosen.Name, chosen.Bytes, smallest.Name, smallest.Bytes)
	}
}

// TestDecodeSeqErrors exercises the container's failure paths.
func TestDecodeSeqErrors(t *testing.T) {
	if _, _, err := DecodeSeq(nil); err == nil {
		t.Error("empty buffer must error")
	}
	if _, _, err := DecodeSeq([]byte{0xFF}); err == nil {
		t.Error("unknown codec tag must error")
	}
	s, _ := EncodeWithPolicy([]uint64{1, 5, 9}, true, 0, CodecForceVarint)
	buf := AppendSeq(nil, s)
	if _, _, err := DecodeSeq(buf[:len(buf)-1]); err == nil {
		t.Error("truncated buffer must error")
	}
	// A block seq whose payload is shorter than its element count says, or
	// whose offsets leave the payload, is an error and not a sequence that
	// panics on Get.
	ramp := make([]uint64, 3*SeqBlockSize)
	for i := range ramp {
		ramp[i] = uint64(i * 1000)
	}
	for _, policy := range []CodecPolicy{CodecForceSimple8b, CodecForceVarint} {
		for _, mono := range []bool{false, true} {
			s, _ := EncodeWithPolicy(ramp, mono, 0, policy)
			good := AppendSeq(nil, s)
			if _, k, err := DecodeSeq(good); err != nil || k != len(good) {
				t.Fatalf("%v mono=%v: own serial form: %v", policy, mono, err)
			}
			for name, corrupt := range map[string]func(b []byte){
				"more elements than payload": func(b []byte) { b[1] = 4*SeqBlockSize - 1 },
				"huge element count":         func(b []byte) { b[8] = 0x40 },
				"payload cut to zeros":       func(b []byte) { clear(b[len(b)-40:]) },
				"varint never ends":          func(b []byte) { b[len(b)-1] |= 0x80 },
			} {
				bad := append([]byte(nil), good...)
				corrupt(bad)
				back, _, err := DecodeSeq(bad)
				if err != nil {
					continue
				}
				// Still a sequence: then every accessor must stay in range.
				if got := back.DecodeAll(nil); len(got) != back.Len() {
					t.Errorf("%v mono=%v, %s: decoded %d of %d", policy, mono, name, len(got), back.Len())
				}
			}
		}
	}
}
