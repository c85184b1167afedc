package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// The lazy merge against a model. mergeModel holds every edge in the
// order it entered the store and applies deletes as they happen; the
// TimeOrder of a record is then a stable sort of its live edges by
// timestamp — pieces are in generation order and each is a stable sort of
// what it was given, so that is "earlier piece, then lower physical
// index" without knowing where the pieces lie.
type mergeModel struct {
	edges map[[2]int64][]*modelEdge
}

type modelEdge struct {
	e     layout.Edge
	piece int
	dead  bool
}

func (m *mergeModel) add(e layout.Edge, piece int) {
	k := [2]int64{e.Src, e.Type}
	m.edges[k] = append(m.edges[k], &modelEdge{e: e, piece: piece})
}

// ends returns the record's live edges in the given piece with the least
// and the greatest timestamp.
func (m *mergeModel) ends(src, etype int64, piece int) (head, tail *modelEdge) {
	for _, me := range m.edges[[2]int64{src, etype}] {
		if me.dead || me.piece != piece {
			continue
		}
		if head == nil || me.e.Timestamp < head.e.Timestamp {
			head = me
		}
		if tail == nil || me.e.Timestamp >= tail.e.Timestamp {
			tail = me
		}
	}
	return head, tail
}

func (m *mergeModel) want(src, etype int64) []layout.EdgeData {
	var out []layout.EdgeData
	for _, me := range m.edges[[2]int64{src, etype}] {
		if !me.dead {
			out = append(out, layout.EdgeData{Dst: me.e.Dst, Timestamp: me.e.Timestamp, Props: me.e.Props})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// freezeLog seals the live log into a raw generation, as a rollover
// does, and with compress builds its shard, as the worker or the writer
// that sealed then does.
func freezeLog(t testing.TB, s *Store, compress bool) {
	t.Helper()
	s.mu.Lock()
	s.sealLogLocked()
	s.mu.Unlock()
	if compress && !s.compressOnePending() {
		t.Fatal("nothing to compress")
	}
}

// The records of a piece store: small (a few edges a piece, every
// interval is checked), big (240 edges in the primary) and sparse (in
// the odd pieces only, so its first piece is not the primary).
var (
	mergeSmall  = [2]int64{1, 0}
	mergeBig    = [2]int64{2, 0}
	mergeSparse = [2]int64{3, 1}
)

// buildPieceStore builds a store whose records lie over the given number
// of pieces, in generation order: the primary, compressed generations,
// then — from three pieces — one sealed raw generation and — from two —
// the live log. With ties, timestamps repeat within and across pieces;
// without, they are distinct within a record. Edges at the heads and
// tails of pieces of every kind are then deleted.
func buildPieceStore(t testing.TB, alpha, pieces int, ties bool) (*Store, *mergeModel) {
	t.Helper()
	ns, es := testSchemas(t)
	rng := rand.New(rand.NewSource(int64(100*pieces + alpha)))
	m := &mergeModel{edges: map[[2]int64][]*modelEdge{}}
	serial := map[[2]int64]int{}
	distinct := map[[2]int64][]int{}
	next := func(k [2]int64, piece, span int) layout.Edge {
		if distinct[k] == nil {
			distinct[k] = rng.Perm(1000)
		}
		ts := int64(rng.Intn(span))
		if !ties {
			ts = int64(10 + 3*distinct[k][serial[k]])
		}
		e := layout.Edge{Src: k[0], Type: k[1], Dst: int64(1000 + serial[k]), Timestamp: ts,
			Props: map[string]string{"weight": fmt.Sprint(serial[k] % 10), "note": fmt.Sprintf("piece %d, edge %d of the record", piece, serial[k])}}
		serial[k]++
		m.add(e, piece)
		return e
	}
	pieceEdges := func(piece int) []layout.Edge {
		var out []layout.Edge
		for i := 0; i < 3; i++ {
			out = append(out, next(mergeSmall, piece, 12))
		}
		big := 3
		if piece == 0 {
			big = 240
		}
		for i := 0; i < big; i++ {
			out = append(out, next(mergeBig, piece, 60))
		}
		for i := 0; i < 2 && piece%2 == 1; i++ {
			out = append(out, next(mergeSparse, piece, 12))
		}
		return out
	}
	var nodes []layout.Node
	for id := int64(0); id < 10; id++ {
		nodes = append(nodes, layout.Node{ID: id, Props: map[string]string{"name": fmt.Sprint("n", id)}})
	}
	for id := int64(1000); id < 1300; id++ {
		nodes = append(nodes, layout.Node{ID: id})
	}
	s, err := New(nodes, pieceEdges(0), ns, es, Config{NumShards: 2, SamplingRate: alpha, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for piece := 1; piece < pieces; piece++ {
		for _, e := range pieceEdges(piece) {
			if err := s.AppendEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		if piece < pieces-1 { // the last piece stays in the live log, the one before it raw
			freezeLog(t, s, piece < pieces-2)
		}
	}
	// Deletes at piece heads and tails, in every kind of piece: lazy marks
	// on compressed pieces, removals from the sealed and the live log.
	for piece := 0; piece < pieces; piece++ {
		for _, k := range [][2]int64{mergeSmall, mergeBig, mergeSparse} {
			head, tail := m.ends(k[0], k[1], piece)
			var dels []*modelEdge
			switch {
			case head == nil:
			case piece == 0:
				dels = []*modelEdge{head, tail}
			case piece%3 == 1:
				dels = []*modelEdge{head}
			case piece%3 == 2:
				dels = []*modelEdge{tail}
			}
			for _, me := range dels {
				if me.dead {
					continue
				}
				me.dead = true
				if n := s.DeleteEdges(me.e.Src, me.e.Type, me.e.Dst); n != 1 {
					t.Fatalf("delete of %+v removed %d edges", me.e, n)
				}
			}
		}
	}
	return s, m
}

// checkMergedRecord compares every read of one record with the model.
// exhaustive checks every interval and every pair of bounds; otherwise
// seeded random ones.
func checkMergedRecord(t testing.TB, s *Store, m *mergeModel, k [2]int64, exhaustive bool, rng *rand.Rand) {
	t.Helper()
	want := m.want(k[0], k[1])
	n := len(want)
	open := func() *EdgeRecord {
		rec, ok := s.GetEdgeRecord(k[0], k[1])
		if ok != (n > 0) || (ok && rec.Count() != n) {
			t.Fatalf("record %v: ok=%v count=%v, want %d edges", k, ok, rec, n)
		}
		return rec
	}
	if n == 0 {
		open()
		return
	}
	dsts := make([]layout.NodeID, n)
	for i, d := range want {
		dsts[i] = d.Dst
	}
	if got := open().Destinations(); !reflect.DeepEqual(got, dsts) {
		t.Fatalf("record %v: Destinations = %v, want %v", k, got, dsts)
	}
	rangeOn := func(rec *EdgeRecord, b, e int) {
		got, err := rec.GetEdgeDataRange(b, e)
		if err != nil || len(got) != e-b || (b < e && !reflect.DeepEqual(got, want[b:e])) {
			t.Fatalf("record %v over %d pieces: [%d,%d) = %v, %v; want %v", k, len(rec.pieces), b, e, got, err, want[b:e])
		}
	}
	var intervals [][2]int
	if exhaustive {
		for b := 0; b <= n; b++ {
			for e := b; e <= n; e++ {
				intervals = append(intervals, [2]int{b, e})
			}
		}
	} else {
		intervals = [][2]int{{0, n}, {n - 1, n}, {0, 1}}
		for i := 0; i < 40; i++ {
			b := rng.Intn(n)
			if i%2 == 0 { // what assoc_range asks for
				b = rng.Intn(min(8, n))
			}
			intervals = append(intervals, [2]int{b, min(n, b+1+rng.Intn(32))})
		}
	}
	for _, r := range intervals {
		rangeOn(open(), r[0], r[1]) // a fresh record: nothing merged or cached yet
	}
	// One record through a run of reads: the merge and the pieces' caches
	// extend, or are already there.
	rec := open()
	for i := 0; i < 12; i++ {
		r := intervals[rng.Intn(len(intervals))]
		rangeOn(rec, r[0], r[1])
	}
	// Edge by edge, forward on one record and backward on another.
	fwd, bwd := open(), open()
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			rec *EdgeRecord
			i   int
		}{{fwd, i}, {bwd, n - 1 - i}} {
			if got, err := c.rec.GetEdgeData(c.i); err != nil || !reflect.DeepEqual(got, want[c.i]) {
				t.Fatalf("record %v: GetEdgeData(%d) = %v, %v; want %v", k, c.i, got, err, want[c.i])
			}
		}
	}
	bounds := []int64{0, math.MaxInt64}
	for _, d := range want {
		bounds = append(bounds, d.Timestamp, d.Timestamp+1)
	}
	boundsOn := func(rec *EdgeRecord, lo, hi int64) (beg, end int) {
		wantBeg := sort.Search(n, func(i int) bool { return want[i].Timestamp >= lo })
		wantEnd := sort.Search(n, func(i int) bool { return want[i].Timestamp >= hi })
		if beg, end = rec.GetEdgeRange(lo, hi); beg != wantBeg || end != wantEnd {
			t.Fatalf("record %v: GetEdgeRange(%d,%d) = [%d,%d), want [%d,%d)", k, lo, hi, beg, end, wantBeg, wantEnd)
		}
		return beg, end
	}
	// A window found and then read, as assoc_get and assoc_time_range do:
	// GetEdgeRange places the merge at the window's lower bound. Then a
	// read below it, which starts the merge over, and the window again; the
	// next window may lie above, inside or below what is merged by then.
	rec = open()
	for i := 0; i < 8; i++ {
		lo := want[rng.Intn(n)].Timestamp
		b, e := boundsOn(rec, lo, lo+1+int64(rng.Intn(20)))
		rangeOn(rec, b, e)
		below := rng.Intn(b + 1)
		rangeOn(rec, below, min(n, below+1+rng.Intn(8)))
		rangeOn(rec, b, e)
	}
	if exhaustive {
		for _, lo := range bounds {
			for _, hi := range bounds {
				boundsOn(open(), lo, hi)
				boundsOn(fwd, lo, hi) // merged in full, every cache warm
			}
		}
	} else {
		for i := 0; i < 60; i++ {
			boundsOn(open(), bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))])
		}
	}
}

// TestLazyMergeDifferential: every read of an EdgeRecord — GetEdgeData,
// GetEdgeDataRange, GetEdgeRange (alone, and followed by reads of the
// window it found and below it), Destinations — against the model, on
// stores whose records lie over 1 to 12 pieces of every kind, with lazily
// deleted edges at piece heads and tails and timestamps that repeat
// within and across pieces: every interval and pair of bounds of the
// small records, seeded random ones of the 240-edge one.
func TestLazyMergeDifferential(t *testing.T) {
	for pieces := 1; pieces <= 12; pieces++ {
		alpha := []int{4, 32, 8}[pieces%3]
		s, m := buildPieceStore(t, alpha, pieces, true)
		rng := rand.New(rand.NewSource(int64(pieces)))
		checkMergedRecord(t, s, m, mergeSmall, true, rng)
		checkMergedRecord(t, s, m, mergeSparse, true, rng)
		checkMergedRecord(t, s, m, mergeBig, false, rng)
		rec, _ := s.GetEdgeRecord(mergeBig[0], mergeBig[1])
		if len(rec.pieces) != pieces {
			t.Fatalf("the big record lies over %d pieces, want %d", len(rec.pieces), pieces)
		}
	}
}

// TestLazyMergeDifferentialRacingCompaction: a reader keeps checking
// every record against the model while an online compaction seals,
// rebuilds and swaps the twelve pieces under it. Timestamps repeat within
// and across pieces: a compaction keeps their order.
func TestLazyMergeDifferentialRacingCompaction(t *testing.T) {
	s, m := buildPieceStore(t, 8, 12, true)
	done := make(chan error, 1)
	go func() { done <- s.Compact() }()
	rng := rand.New(rand.NewSource(12))
	for rounds, compacted := 0, false; !compacted || rounds < 2; rounds++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			compacted = true
		default:
		}
		for _, k := range [][2]int64{mergeSmall, mergeSparse, mergeBig} {
			checkMergedRecord(t, s, m, k, false, rng)
		}
	}
	if rec, _ := s.GetEdgeRecord(mergeBig[0], mergeBig[1]); len(rec.pieces) != 1 {
		t.Fatalf("after the compaction the big record lies over %d pieces", len(rec.pieces))
	}
}

// TestTierMergeDifferential: a tier merge changes no answer. On the
// twelve-piece store (timestamps repeating within and across pieces,
// lazy marks at piece heads and tails) the nine compressed generations
// merge three at a time — the first merge with deletes racing its
// build — into three of tier 1, then one of tier 2, and every read of
// every record matches the model after each merge. A store fragmented
// by rollovers, rewrites and node and edge deletes answers the α
// suite's battery (node properties, neighbors, every record's range,
// FindNodes, FindEdges) as its unmerged twin does, before and after
// deleted nodes are appended again.
func TestTierMergeDifferential(t *testing.T) {
	s, m := buildPieceStore(t, 8, 12, true)
	s.cfg.CompactAfterRollovers = 3 // the fan-in; no worker runs, the test merges
	done := make(chan bool)
	go func() { done <- s.mergeTier() }()
	for _, k := range [][2]int64{mergeSmall, mergeBig, mergeSparse} {
		for _, me := range m.edges[k] {
			if me.dead || me.piece < 1 || me.piece > 3 { // the oldest run holds pieces 1–3
				continue
			}
			me.dead = true
			if n := s.DeleteEdges(me.e.Src, me.e.Type, me.e.Dst); n != 1 {
				t.Errorf("delete of %+v removed %d edges", me.e, n)
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	merges := 0
	for ok := <-done; ok; ok = s.mergeTier() {
		merges++
		for _, k := range [][2]int64{mergeSmall, mergeSparse, mergeBig} {
			checkMergedRecord(t, s, m, k, k != mergeBig, rng)
		}
	}
	rec, _ := s.GetEdgeRecord(mergeBig[0], mergeBig[1])
	if merges != 4 || len(rec.pieces) != 4 || s.gens[0].tier != 2 {
		t.Fatalf("%d merges leave the big record over %d pieces and the oldest generation at tier %d; want 4, 4 (primary, tier 2, sealed, live), 2",
			merges, len(rec.pieces), s.gens[0].tier)
	}

	_, edges := testGraph(60, 240, 3)
	build := func() *Store {
		s := buildFragmentedStore(t, 8)
		rolloverScript(t, s, edges)
		s.cfg.CompactAfterRollovers = 2
		return s
	}
	merged, twin := build(), build()
	for merges = 0; merged.mergeTier(); merges++ {
	}
	if merges == 0 {
		t.Fatal("the fragmented store has no tier run")
	}
	same := func(phase string) {
		t.Helper()
		if !reflect.DeepEqual(queryBattery(t, merged), queryBattery(t, twin)) {
			t.Fatalf("%s: the tier-merged store answers differently from its twin", phase)
		}
	}
	same("merged")
	var gone []layout.NodeID
	for id := layout.NodeID(0); id < 60; id++ {
		if !twin.HasNode(id) {
			gone = append(gone, id)
		}
	}
	if len(gone) < 3 {
		t.Fatalf("%d deleted nodes, want 3", len(gone))
	}
	for _, s := range []*Store{merged, twin} {
		// Back by a node append, as an edge's source and as its destination.
		if err := s.AppendNode(gone[0], map[string]string{"name": "back"}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendEdge(layout.Edge{Src: gone[1], Dst: gone[2], Type: 1, Timestamp: 30001}); err != nil {
			t.Fatal(err)
		}
	}
	same("deleted nodes appended again")
}

// succinctWork runs fn with telemetry on and returns the bytes it
// extracted from compressed stores and the Ψ steps it took.
func succinctWork(fn func()) (bytes, steps float64) {
	prev := telemetry.SetEnabled(true)
	before := telemetry.TakeSnapshot()
	fn()
	d := telemetry.Delta(before, telemetry.TakeSnapshot())
	telemetry.SetEnabled(prev)
	return d["zipg_succinct_extract_bytes_total"], d["zipg_succinct_psi_steps_total"]
}

// TestRangeReadCost: a range read costs what it returns. On a clean
// 240-edge record, the intervals assoc_range asks for (idx < 8, limit <=
// 32) extract exactly their edges' property lists: every other field is
// a column. And a piece that gives a read nothing costs it no Ψ step: as
// 60-edge generations of later timestamps are added behind the primary,
// the Ψ steps of a read stay what they were.
func TestRangeReadCost(t *testing.T) {
	ns, es := testSchemas(t)
	var edges []layout.Edge
	for i := 0; i < 240; i++ {
		edges = append(edges, layout.Edge{Src: 5, Dst: int64(i), Type: 0, Timestamp: int64(7 * i),
			Props: map[string]string{"weight": "1", "note": fmt.Sprintf("the note of edge %d, some forty bytes", i)}})
	}
	s, err := New(nil, edges, ns, es, Config{NumShards: 1, SamplingRate: 32, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 8; idx++ {
		for limit := 1; limit <= 32; limit++ {
			rec, _ := s.GetEdgeRecord(5, 0)
			if _, clean := rec.singleCleanPiece(); !clean || rec.Count() != 240 {
				t.Fatalf("the record: %d edges, clean %v", rec.Count(), clean)
			}
			want := 0
			for _, e := range edges[idx : idx+limit] {
				want += es.PropsEncodedSize(e.Props)
			}
			bytes, _ := succinctWork(func() {
				if _, err := rec.GetEdgeDataRange(idx, idx+limit); err != nil {
					t.Fatal(err)
				}
			})
			if int(bytes) != want {
				t.Fatalf("[%d,%d) of a 240-edge record extracts %.0f bytes; its property lists are %d", idx, idx+limit, bytes, want)
			}
		}
	}

	read := func() float64 {
		_, steps := succinctWork(func() {
			rec, _ := s.GetEdgeRecord(5, 0)
			if got, err := rec.GetEdgeDataRange(0, 16); err != nil || len(got) != 16 || got[15].Dst != 15 {
				t.Fatalf("[0,16) = %v, %v", got, err)
			}
		})
		return steps
	}
	base := read()
	const perPiece = 0 // its timestamps are a column
	for piece := 1; piece <= 11; piece++ {
		for i := 0; i < 60; i++ {
			if err := s.AppendEdge(layout.Edge{Src: 5, Dst: int64(1000*piece + i), Type: 0, Timestamp: int64(10000*piece + i)}); err != nil {
				t.Fatal(err)
			}
		}
		freezeLog(t, s, true)
		if steps := read(); steps > base+float64(piece*perPiece) {
			t.Errorf("%d pieces of 60 edges behind the primary: a read of [0,16) takes %.0f Ψ steps, %.0f with none; want at most %d more per piece",
				piece, steps, base, perPiece)
		} else if piece == 11 {
			t.Logf("[0,16) of a 240-edge primary: %.0f Ψ steps alone, %.0f with 11 pieces of 60 edges behind it", base, steps)
		}
	}
}

// TestTimeWindowCostsItsWindow: a time window is read for what it holds,
// wherever in the record it lies. A record appended in time order lies
// over ten compressed pieces of 60 edges, each with a property list;
// GetEdgeRange + GetEdgeDataRange over the last 1/32 of its span take at
// most a quarter of the Ψ steps of reading the record whole, a window no
// piece overlaps takes none once the record is open, and a read below a
// placed merge starts it over.
func TestTimeWindowCostsItsWindow(t *testing.T) {
	ns, es := testSchemas(t)
	const pieces, perPiece, tsBase, tsStep = 10, 60, 1_500_000_000, 1000
	var want []layout.EdgeData
	edge := func(i int) layout.Edge {
		e := layout.Edge{Src: 5, Dst: int64(i), Type: 0, Timestamp: int64(tsBase + i*tsStep),
			Props: map[string]string{"note": fmt.Sprintf("edge %d", i)}}
		want = append(want, layout.EdgeData{Dst: e.Dst, Timestamp: e.Timestamp})
		return e
	}
	var primary []layout.Edge
	for i := 0; i < perPiece; i++ {
		primary = append(primary, edge(i))
	}
	s, err := New(nil, primary, ns, es, Config{NumShards: 1, SamplingRate: 32, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := perPiece; i < pieces*perPiece; i++ {
		if err := s.AppendEdge(edge(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perPiece == 0 {
			freezeLog(t, s, true)
		}
	}
	open := func() *EdgeRecord {
		rec, ok := s.GetEdgeRecord(5, 0)
		if !ok || rec.Count() != len(want) || len(rec.pieces) != pieces {
			t.Fatalf("the record: %v, want %d edges over %d pieces", rec, len(want), pieces)
		}
		return rec
	}
	same := func(what string, got []layout.EdgeData, err error, want []layout.EdgeData) {
		t.Helper()
		if err != nil || len(got) != len(want) {
			t.Fatalf("%s: %d edges, %v; want %d", what, len(got), err, len(want))
		}
		for i := range want {
			if got[i].Dst != want[i].Dst || got[i].Timestamp != want[i].Timestamp {
				t.Fatalf("%s: edge %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}

	_, whole := succinctWork(func() {
		rec := open()
		got, err := rec.GetEdgeDataRange(0, rec.Count())
		same("the whole record", got, err, want)
	})
	tsEnd := int64(tsBase + len(want)*tsStep)
	lo := tsEnd - (tsEnd-tsBase)/32
	inWindow := len(want) - len(want)/32
	var rec *EdgeRecord
	_, window := succinctWork(func() {
		rec = open()
		beg, end := rec.GetEdgeRange(lo, tsEnd)
		if beg != inWindow || end != len(want) {
			t.Fatalf("GetEdgeRange(last 1/32) = [%d,%d), want [%d,%d)", beg, end, inWindow, len(want))
		}
		got, err := rec.GetEdgeDataRange(beg, end)
		same("the last 1/32", got, err, want[inWindow:])
	})
	t.Logf("%d edges over %d pieces: %.0f Ψ steps whole, %.0f for the last 1/32 of the span", len(want), pieces, whole, window)
	if window > whole/4 {
		t.Errorf("the last 1/32 of the span takes %.0f Ψ steps, the whole record %.0f; want at most a quarter", window, whole)
	}
	got, err := rec.GetEdgeDataRange(3, 9) // below the placed merge
	same("[3,9) after the window", got, err, want[3:9])

	rec = open()
	_, missed := succinctWork(func() {
		for _, w := range [][2]int64{{tsEnd, tsEnd + 5000}, {0, tsBase}, {tsBase + 59*tsStep + 1, tsBase + 60*tsStep}} {
			beg, end := rec.GetEdgeRange(w[0], w[1])
			if got, err := rec.GetEdgeDataRange(beg, end); beg != end || got != nil || err != nil {
				t.Fatalf("window [%d,%d) holds no edge: [%d,%d) = %v, %v", w[0], w[1], beg, end, got, err)
			}
		}
	})
	if missed != 0 {
		t.Errorf("windows that miss every piece took %.0f Ψ steps of an open record, want none", missed)
	}
}

// TestEdgeMetadataTakesNoPsiSteps: on compressed records, locating a
// record with its count, a time window's TimeOrders and a delete by
// destination read the EdgeFile's columns and no compressed byte.
func TestEdgeMetadataTakesNoPsiSteps(t *testing.T) {
	ns, es := testSchemas(t)
	_, edges := testGraph(60, 400, 5)
	s, err := New(nil, edges, ns, es, Config{NumShards: 3, SamplingRate: 32, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	live := len(edges)
	_, steps := succinctWork(func() {
		total := 0
		for src := int64(0); src < 60; src++ {
			for ty := int64(0); ty < 3; ty++ {
				if rec, ok := s.GetEdgeRecord(src, ty); ok {
					total += rec.Count()
					rec.GetEdgeRange(100, 5000)
				}
			}
		}
		if total != live {
			t.Fatalf("records count %d edges, want %d", total, live)
		}
		for _, e := range edges[:40] {
			live -= s.DeleteEdges(e.Src, e.Type, e.Dst)
		}
	})
	if steps != 0 || live >= len(edges) {
		t.Errorf("GetEdgeRecord + Count, GetEdgeRange and DeleteEdges took %v Ψ steps (%d of %d edges left), want none", steps, live, len(edges))
	}
}
