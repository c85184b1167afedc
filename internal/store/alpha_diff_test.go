package store

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"zipg/internal/graphapi"
	"zipg/internal/layout"
)

// buildFragmentedStore builds a store under the given α, then fragments
// it: appends force LogStore rollovers, updates create fanned pointers,
// and node plus edge deletes leave lazy marks. The mutation sequence is
// deterministic so every store holds the same logical graph.
func buildFragmentedStore(t *testing.T, alpha int) *Store {
	t.Helper()
	ns, es := testSchemas(t)
	nodes, edges := testGraph(60, 240, 3)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards:         3,
		SamplingRate:      alpha,
		LogStoreThreshold: 2 << 10, // tiny: force rollovers
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		id := int64(i * 2)
		if err := s.AppendNode(id, map[string]string{
			"age": fmt.Sprint(90 + i), "location": "Madison", "name": fmt.Sprintf("upd%d", i),
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendEdge(layout.Edge{
			Src: id, Dst: int64((i * 5) % 60), Type: 1, Timestamp: int64(20000 + i),
			Props: map[string]string{"weight": fmt.Sprint(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.DeleteNode(int64(i*7 + 1))
	}
	for _, e := range edges[:20] {
		s.DeleteEdges(e.Src, e.Type, e.Dst)
	}
	if s.Rollovers() == 0 {
		t.Fatal("test store failed to fragment (no rollovers)")
	}
	return s
}

// storeAnswers captures one store's answers to a fixed query battery.
type storeAnswers struct {
	props     [][]string
	oks       []bool
	neighbors [][]layout.NodeID
	ranges    [][]layout.EdgeData // each record of types 0–2, whole, in TimeOrder
	finds     [][]layout.NodeID
	edges     []int
}

func queryBattery(t *testing.T, s *Store) storeAnswers {
	t.Helper()
	var a storeAnswers
	for id := int64(0); id < 60; id++ {
		vals, ok := s.GetNodeProps(id, nil)
		a.props = append(a.props, vals)
		a.oks = append(a.oks, ok)
		a.neighbors = append(a.neighbors, s.NeighborIDs(id, graphapi.WildcardType, nil))
		for etype := int64(0); etype < 3; etype++ {
			var data []layout.EdgeData
			if rec, ok := s.GetEdgeRecord(id, etype); ok {
				var err error
				if data, err = rec.GetEdgeDataRange(0, rec.Count()); err != nil {
					t.Fatal(err)
				}
			}
			a.ranges = append(a.ranges, data)
		}
	}
	for _, city := range []string{"Ithaca", "Berkeley", "Madison", "nowhere"} {
		a.finds = append(a.finds, s.FindNodes(map[string]string{"location": city}))
	}
	for w := 0; w < 5; w++ {
		a.edges = append(a.edges, len(s.FindEdges(map[string]string{"weight": fmt.Sprint(w)})))
	}
	return a
}

// TestAlphaDifferential is the store-level differential suite: a
// fragmented store (rollovers, fanned updates, node and edge deletes)
// must answer an identical query battery under every α ∈ {4, 8, 32},
// and again (against a post-compaction reference, since compaction
// legitimately changes what lazy deletion marks hide) after Compact. The
// first build is the reference — sampling never changes answers.
func TestAlphaDifferential(t *testing.T) {
	var ref, refAfter *storeAnswers
	for _, alpha := range []int{4, 8, 32} {
		s := buildFragmentedStore(t, alpha)
		got := queryBattery(t, s)
		if ref == nil {
			ref = &got
		} else if !reflect.DeepEqual(*ref, got) {
			t.Fatalf("alpha=%d: answers diverged from reference", alpha)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		after := queryBattery(t, s)
		if refAfter == nil {
			refAfter = &after
		} else if !reflect.DeepEqual(*refAfter, after) {
			t.Fatalf("alpha=%d: answers diverged after compaction", alpha)
		}
	}
}

// TestAlphaPersistDifferential: a fragmented store survives Save/Load
// with identical answers at every α.
func TestAlphaPersistDifferential(t *testing.T) {
	for _, alpha := range []int{4, 8, 32} {
		s := buildFragmentedStore(t, alpha)
		want := queryBattery(t, s)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := queryBattery(t, back); !reflect.DeepEqual(want, got) {
			t.Fatalf("alpha=%d: answers diverged across Save/Load", alpha)
		}
	}
}

// TestCodecReportFieldNames is the golden test of the codecs admin
// surface (/debug/codecs, zipg-cli codecs): every fragment header says
// where its NodeFile is sampled, every region line carries the same
// labelled fields, the Ψ lines add the run-block share and the
// directory/payload split, and the numbers behind them add up.
func TestCodecReportFieldNames(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(40, 400, 9)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	region := `  (node|edge)/(psi|marks|sa|isa|offsets|starts|props|ts|dsts) +(monotone|packed|sparse) +\d+ elems +\d+ bytes +\d+\.\d{3} bits/row`
	mono := ` +run-blocks=\d+\.\d% records=\d+\.\d% dir=\d+B payload=\d+B`
	line := regexp.MustCompile(`^` + region + `(` + mono + `)?$`)
	psi := regexp.MustCompile(`^  (node|edge)/psi +monotone .*bits/row` + mono + `$`)
	lines := strings.Split(strings.TrimSpace(FormatCodecReport(s.CodecReport())), "\n")
	var regions, psis int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "primary/"):
			if !regexp.MustCompile(`^primary/\d+  alpha=8$`).MatchString(l) {
				t.Errorf("fragment header does not name its NodeFile's sampling:\n%s", l)
			}
		case strings.HasPrefix(l, "#"):
		case !line.MatchString(l):
			t.Errorf("region line does not match the golden format:\n%s", l)
		default:
			regions++
			if strings.Contains(l, "/psi ") {
				psis++
				if !psi.MatchString(l) {
					t.Errorf("psi line lacks its block breakdown:\n%s", l)
				}
			}
		}
	}
	if regions != 2*12 || psis != 2*2 {
		t.Errorf("report has %d region lines, %d of them psi; want 24 and 4:\n%s", regions, psis, strings.Join(lines, "\n"))
	}
	// A one-property NodeFile is sampled at its records' delimiter: its
	// header says so, and it has no α-grid marks.
	one, err := layout.NewPropertySchema([]string{"name"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	named := make([]layout.Node, len(nodes))
	for i, n := range nodes {
		named[i] = layout.Node{ID: n.ID, Props: map[string]string{"name": n.Props["name"]}}
	}
	anch, err := New(named, edges, one, es, Config{NumShards: 1, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatCodecReport(anch.CodecReport()); !strings.Contains(got, "primary/0  anchored 0x02\n") || strings.Contains(got, "node/marks") {
		t.Errorf("one-property NodeFile's report:\n%s", got)
	}
	for _, fc := range s.CodecReport() {
		for _, rc := range fc.Regions {
			if rc.BitsPerRow <= 0 {
				t.Errorf("%s %s: bits/row %v", fc.Fragment, rc.Region, rc.BitsPerRow)
			}
			if strings.HasSuffix(rc.Region, "/psi") &&
				(rc.DirBytes+rc.PayloadBytes != rc.Bytes || rc.RunBlockShare <= 0 || rc.RunBlockShare > 1 ||
					rc.RecordShare <= 0 || rc.RecordShare > 1) {
				t.Errorf("%s %s: dir %d + payload %d != %d bytes, or run share %v or record share %v outside (0,1]",
					fc.Fragment, rc.Region, rc.DirBytes, rc.PayloadBytes, rc.Bytes, rc.RunBlockShare, rc.RecordShare)
			}
		}
	}
}
