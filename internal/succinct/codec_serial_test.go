package succinct

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"zipg/internal/bitutil"
)

// TestSerialOneVersion: whatever the sample-array codecs, a store
// marshals under the one magic, reloads and answers identically; every
// other magic — the retired ZSUC1/ZSUC2/ZSUC3 included — is refused with an
// error that names what was found.
func TestSerialOneVersion(t *testing.T) {
	text := bytes.Repeat([]byte("abracadabra$kalamazoo|"), 40)
	for _, policy := range []bitutil.CodecPolicy{bitutil.CodecAuto, bitutil.CodecForceLegacy, bitutil.CodecForceVarint} {
		built := Build(text, Options{SamplingRate: 8, Codec: policy})
		blob := built.MarshalBinary()
		if !bytes.HasPrefix(blob, []byte("ZSUC4\x00")) {
			t.Fatalf("policy %v marshaled with magic %q", policy, blob[:6])
		}
		got, err := UnmarshalStore(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Extract(0, len(text)), text) {
			t.Fatal("reloaded store extracts different bytes")
		}
		if w, g := built.Count([]byte("abra")), got.Count([]byte("abra")); g != w {
			t.Fatalf("reloaded Count = %d, want %d", g, w)
		}
		if w, g := built.CompressedSize(), got.CompressedSize(); g != w {
			t.Fatalf("reloaded CompressedSize = %d, want %d", g, w)
		}
	}

	blob := Build(text, Options{SamplingRate: 8}).MarshalBinary()
	for _, magic := range []string{"ZSUC1\x00", "ZSUC2\x00", "ZSUC3\x00", "ZSUC9\x00", "nope"} {
		bad := append([]byte(magic), blob[6:]...)
		_, err := UnmarshalStore(bad, nil)
		if err == nil || !strings.Contains(err.Error(), "unsupported format version") ||
			!strings.Contains(err.Error(), strconv.Quote(magic)[1:5]) {
			t.Errorf("magic %q: err = %v, want unsupported format version naming it", magic, err)
		}
	}
	if _, err := UnmarshalStore(nil, nil); err == nil {
		t.Error("empty input loaded")
	}
}

// TestCodecQueryEquivalence: the same text built under every codec
// policy and several α values answers Extract/Search/Count
// identically — codecs change the encoding, never the answers.
func TestCodecQueryEquivalence(t *testing.T) {
	text := bytes.Repeat([]byte("the quick brown fox|jumps over the lazy dog$"), 25)
	patterns := [][]byte{[]byte("the"), []byte("fox|"), []byte("$"), []byte("zz")}
	ref := Build(text, Options{SamplingRate: 8, Codec: bitutil.CodecForceLegacy})
	for _, alpha := range []int{4, 8, 32} {
		for _, policy := range []bitutil.CodecPolicy{
			bitutil.CodecAuto, bitutil.CodecForceSimple8b, bitutil.CodecForceVarint,
		} {
			s := Build(text, Options{SamplingRate: alpha, Codec: policy})
			if !bytes.Equal(s.Extract(0, len(text)), text) {
				t.Fatalf("alpha=%d policy=%v: extract diverged", alpha, policy)
			}
			for _, p := range patterns {
				want := ref.Search(p)
				got := s.Search(p)
				if len(want) != len(got) {
					t.Fatalf("alpha=%d policy=%v: Search(%q) %d hits, want %d", alpha, policy, p, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("alpha=%d policy=%v: Search(%q)[%d] = %d, want %d", alpha, policy, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}
