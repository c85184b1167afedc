package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"zipg/internal/bitutil"
	"zipg/internal/layout"
)

// checkShardsAgree asserts both shards answer node-property and edge
// queries identically.
func checkShardsAgree(t *testing.T, a, b *Shard, nodes []layout.Node) {
	t.Helper()
	for _, n := range nodes {
		pa, oka := a.Nodes().GetAllProps(n.ID)
		pb, okb := b.Nodes().GetAllProps(n.ID)
		if oka != okb || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("node %d: %v/%v vs %v/%v", n.ID, pa, oka, pb, okb)
		}
	}
	for _, src := range a.EdgeSources() {
		for etype := int64(0); etype < 2; etype++ {
			ra, oka := a.Edges().GetEdgeRecord(src, etype)
			rb, okb := b.Edges().GetEdgeRecord(src, etype)
			if oka != okb {
				t.Fatalf("record (%d,%d): %v vs %v", src, etype, oka, okb)
			}
			if !oka {
				continue
			}
			if ra.Count != rb.Count {
				t.Fatalf("record (%d,%d) counts: %d vs %d", src, etype, ra.Count, rb.Count)
			}
			for i := 0; i < ra.Count; i++ {
				da, err1 := a.Edges().GetEdgeData(&ra, i)
				db, err2 := b.Edges().GetEdgeData(&rb, i)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !reflect.DeepEqual(da, db) {
					t.Fatalf("record (%d,%d)[%d]: %+v vs %+v", src, etype, i, da, db)
				}
			}
		}
	}
	offA, okA := a.EdgeRecordOffset(a.EdgeSources()[0], 0)
	offB, okB := b.EdgeRecordOffset(a.EdgeSources()[0], 0)
	if okA != okB || offA != offB {
		t.Fatalf("EdgeRecordOffset diverged: %d/%v vs %d/%v", offA, okA, offB, okB)
	}
}

// TestCodecShardRoundTrip: shards built under every policy round-trip
// through Marshal/Unmarshal preserving codec identity and answers.
func TestCodecShardRoundTrip(t *testing.T) {
	ns := mustSchema(t, []string{"city", "name"})
	es := mustSchema(t, []string{"w"})
	_, nodes, edges := buildTestShard(t)
	for _, policy := range []bitutil.CodecPolicy{
		bitutil.CodecAuto, bitutil.CodecForceLegacy,
		bitutil.CodecForceSimple8b, bitutil.CodecForceVarint,
	} {
		sh, err := Build(nodes, edges, ns, es, Options{SamplingRate: 4, Codec: policy})
		if err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
		blob, err := sh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalShard(blob, nil)
		if err != nil {
			t.Fatalf("policy %v: unmarshal: %v", policy, err)
		}
		checkShardsAgree(t, sh, back, nodes)

		// Region identity survives the round-trip.
		want := map[string]string{}
		for _, rc := range sh.CodecReport() {
			want[rc.Region] = rc.Codec
		}
		for _, rc := range back.CodecReport() {
			if want[rc.Region] != rc.Codec {
				t.Errorf("policy %v region %s: codec %s after reload, want %s",
					policy, rc.Region, rc.Codec, want[rc.Region])
			}
		}
	}
}

// TestOldShardRefusedByVersion: a shard from before the codec-tagged
// offset columns carries no NodeOffsetsEnc/EdgeIdxOffsEnc, and its stores
// are ZSUC1. UnmarshalShard checks the stores first, so the error names
// the format version, not a missing column.
func TestOldShardRefusedByVersion(t *testing.T) {
	sh, _, _ := buildTestShard(t)
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var w shardWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	w.NodeOffsetsEnc, w.EdgeIdxOffsEnc = nil, nil
	copy(w.NodeStore, "ZSUC1\x00")
	copy(w.EdgeStore, "ZSUC1\x00")
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(w); err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalShard(old.Bytes(), nil)
	if err == nil || !strings.Contains(err.Error(), "unsupported format version") || !strings.Contains(err.Error(), "ZSUC1") {
		t.Errorf("err = %v, want unsupported format version naming ZSUC1", err)
	}
}

// TestShardWithoutOffsetColumnsRefused: current stores but no
// codec-tagged offset column — either one — is named as an unsupported
// shard format, not reported as a column that failed to decode.
func TestShardWithoutOffsetColumnsRefused(t *testing.T) {
	sh, _, _ := buildTestShard(t)
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, drop := range map[string]func(w *shardWire){
		"node offsets": func(w *shardWire) { w.NodeOffsetsEnc = nil },
		"edge index":   func(w *shardWire) { w.EdgeIdxOffsEnc = nil },
	} {
		var w shardWire
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
			t.Fatal(err)
		}
		drop(&w)
		var cut bytes.Buffer
		if err := gob.NewEncoder(&cut).Encode(w); err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalShard(cut.Bytes(), nil); err == nil || !strings.Contains(err.Error(), "unsupported shard format") {
			t.Errorf("without %s: err = %v, want unsupported shard format", name, err)
		}
	}
}

func mustSchema(t *testing.T, ids []string) *layout.PropertySchema {
	t.Helper()
	s, err := layout.NewPropertySchema(ids, 64)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
