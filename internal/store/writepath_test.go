package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zipg/internal/layout"
	"zipg/internal/telemetry"
)

// TestGroupCommitConcurrentWriters hammers commit from many goroutines
// and verifies nothing is lost or misattributed.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 40, 3)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := int64(1000 + g)
			for i := 0; i < perWriter; i++ {
				if err := s.AppendEdge(layout.Edge{Src: src, Dst: int64(2000 + i), Type: 2, Timestamp: int64(i + 1)}); err != nil {
					t.Error(err)
					return
				}
				if err := s.AppendNode(int64(3000+g*perWriter+i), map[string]string{"name": fmt.Sprintf("w%d-%d", g, i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < writers; g++ {
		rec, ok := s.GetEdgeRecord(int64(1000+g), 2)
		if !ok || rec.Count() != perWriter {
			t.Fatalf("writer %d: edge count = %v (ok=%v), want %d", g, rec, ok, perWriter)
		}
		for i := 0; i < perWriter; i++ {
			id := int64(3000 + g*perWriter + i)
			vals, ok := s.GetNodeProps(id, []string{"name"})
			if !ok || vals[0] != fmt.Sprintf("w%d-%d", g, i) {
				t.Fatalf("node %d = %v (ok=%v)", id, vals, ok)
			}
		}
	}
}

// TestAppendEdgeRacingAppendNode races AppendEdge(0 → fresh) against
// AppendNode(fresh, props), a fresh node each round. Every serial order
// leaves the node its props: appended first, the node is an endpoint
// the edge finds; appended second, its put replaces the empty endpoint
// the edge created. An empty endpoint prepared before the node's commit
// and applied after it would erase them.
func TestAppendEdgeRacingAppendNode(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 40, 3)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4000
	lost := 0
	for r := 0; r < rounds; r++ {
		fresh := int64(10000 + r)
		name := fmt.Sprintf("fresh%d", r)
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			errs[0] = s.AppendEdge(layout.Edge{Src: 0, Dst: fresh, Type: 1, Timestamp: int64(r)})
		}()
		go func() {
			defer wg.Done()
			<-start
			errs[1] = s.AppendNode(fresh, map[string]string{"name": name})
		}()
		close(start)
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if vals, ok := s.GetNodeProps(fresh, []string{"name"}); !ok || vals[0] != name {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d fresh nodes lost their props to a racing AppendEdge", lost, rounds)
	}
}

// mutateForCompact applies a fixed mutation sequence that fragments the
// store across several generations.
func mutateForCompact(t *testing.T, s *Store, edges []layout.Edge) {
	t.Helper()
	for i := 0; i < 150; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 8), Dst: int64(300 + i), Type: 0, Timestamp: int64(100000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(3, map[string]string{"name": "updated", "location": "Chicago"}); err != nil {
		t.Fatal(err)
	}
	s.DeleteNode(9)
	s.DeleteEdges(edges[0].Src, edges[0].Type, edges[0].Dst)
	s.DeleteEdges(2, 0, 302)
}

// TestCompactDeterminism locks the determinism of compaction's
// materialize pass: two stores given identical histories must compact
// to byte-identical primary shards.
func TestCompactDeterminism(t *testing.T) {
	build := func() *Store {
		ns, es := testSchemas(t)
		nodes, edges := testGraph(25, 100, 4)
		s, err := New(nodes, edges, ns, es, Config{
			NumShards: 3, SamplingRate: 8, LogStoreThreshold: 2500,
		})
		if err != nil {
			t.Fatal(err)
		}
		mutateForCompact(t, s, edges)
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	if len(a.primaries) != len(b.primaries) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.primaries), len(b.primaries))
	}
	for p := range a.primaries {
		ab, err := a.primaries[p].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.primaries[p].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("shard %d: serialized bytes differ across identical rebuilds (%d vs %d bytes)", p, len(ab), len(bb))
		}
	}
}

// TestCompactKeepsEqualTimestampOrder: equal timestamps in one record
// keep the order the lazy merge reads them in — the earlier piece
// first, as refgraph's insertion order has it — through a tier merge
// and a full compaction, which once ordered them by destination.
func TestCompactKeepsEqualTimestampOrder(t *testing.T) {
	ns, es := testSchemas(t)
	s, err := New(nil, []layout.Edge{{Src: 1, Dst: 5, Type: 0, Timestamp: 10}}, ns, es,
		Config{NumShards: 1, SamplingRate: 8, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.CompactAfterRollovers = 2 // the tier merge's fan-in; no worker runs
	order := func(phase string, want ...layout.NodeID) {
		t.Helper()
		rec, ok := s.GetEdgeRecord(1, 0)
		if !ok {
			t.Fatalf("%s: record (1,0) missing", phase)
		}
		data, err := rec.GetEdgeDataRange(0, rec.Count())
		var got []layout.NodeID
		for _, d := range data {
			got = append(got, d.Dst)
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: destinations %v, %v; want %v", phase, got, err, want)
		}
	}
	for i, dst := range []layout.NodeID{3, 4} {
		if err := s.AppendEdge(layout.Edge{Src: 1, Dst: dst, Type: 0, Timestamp: 10}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			order("the primary and the live log", 5, 3)
		}
		freezeLog(t, s, true)
	}
	order("the primary and two generations", 5, 3, 4)
	if !s.mergeTier() {
		t.Fatal("no tier run to merge")
	}
	order("after a tier merge", 5, 3, 4)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	order("after Compact", 5, 3, 4)
}

// TestCompactKeepsDeletedNodesEdges: a deleted node's edges are hidden,
// not gone — re-appending the node, or an edge that recreates it as an
// endpoint, finds them as they were — and a full compaction, which
// drops the deleted nodes' records, leaves them so. Node 1's edges lie
// in the primary and in a compressed generation.
func TestCompactKeepsDeletedNodesEdges(t *testing.T) {
	ns, es := testSchemas(t)
	s, err := New(nil, []layout.Edge{
		{Src: 1, Dst: 5, Type: 0, Timestamp: 10},
		{Src: 1, Dst: 6, Type: 0, Timestamp: 11},
		{Src: 2, Dst: 5, Type: 0, Timestamp: 12},
	}, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEdge(layout.Edge{Src: 1, Dst: 7, Type: 0, Timestamp: 13}); err != nil {
		t.Fatal(err)
	}
	freezeLog(t, s, true)
	s.DeleteNode(1)
	s.DeleteNode(2)
	s.DeleteNode(5)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	count := func(id layout.NodeID) int {
		rec, ok := s.GetEdgeRecord(id, 0)
		if !ok {
			return 0
		}
		return rec.Count()
	}
	if s.HasNode(1) || s.HasNode(2) || s.HasNode(5) || count(1) != 0 || count(2) != 0 {
		t.Fatal("a deleted node or its edges reads after Compact")
	}
	if err := s.AppendNode(1, map[string]string{"name": "back"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEdge(layout.Edge{Src: 6, Dst: 2, Type: 1, Timestamp: 14}); err != nil {
		t.Fatal(err)
	}
	if got := count(1); got != 3 {
		t.Errorf("re-appended node 1 has %d edges, want its 3", got)
	}
	if got := count(2); got != 1 {
		t.Errorf("node 2, recreated as an endpoint, has %d edges, want its 1", got)
	}
	if s.HasNode(5) {
		t.Error("node 5, deleted with no edges of its own, reads after Compact")
	}
}

// TestSealedRawGeneration exercises every read path against a sealed
// raw generation (the state between an O(1) rollover and its
// background compression), then compresses it and checks answers are
// unchanged.
func TestSealedRawGeneration(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 60, 5)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 4), Dst: int64(500 + i), Type: 1, Timestamp: int64(9000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendNode(7, map[string]string{"name": "sealed-era", "age": "99"}); err != nil {
		t.Fatal(err)
	}
	// Seal the live log by hand (what a rollover does).
	s.mu.Lock()
	s.sealLogLocked()
	s.mu.Unlock()

	check := func(phase string) {
		t.Helper()
		vals, ok := s.GetNodeProps(7, []string{"name", "age"})
		if !ok || vals[0] != "sealed-era" || vals[1] != "99" {
			t.Fatalf("%s: node 7 = %v (ok=%v)", phase, vals, ok)
		}
		rec, ok := s.GetEdgeRecord(2, 1)
		if !ok {
			t.Fatalf("%s: edge record (2,1) missing", phase)
		}
		want := 0
		for _, e := range edges {
			if e.Src == 2 && e.Type == 1 {
				want++
			}
		}
		for i := 0; i < 40; i++ {
			if i%4 == 2 {
				want++
			}
		}
		if rec.Count() != want {
			t.Fatalf("%s: edge count (2,1) = %d, want %d", phase, rec.Count(), want)
		}
		found := s.FindNodes(map[string]string{"name": "sealed-era"})
		if len(found) != 1 || found[0] != 7 {
			t.Fatalf("%s: FindNodes = %v", phase, found)
		}
	}
	check("raw")

	// A delete against the sealed generation removes the edge from the
	// sealed log itself.
	if n := s.DeleteEdges(3, 1, 503); n != 1 {
		t.Fatalf("delete against sealed gen removed %d, want 1", n)
	}
	s.mu.RLock()
	sealed := s.gens[0].log
	s.mu.RUnlock()
	for _, e := range sealed.EdgeEntries(3, 1) {
		if e.Dst == 503 {
			t.Fatalf("sealed log still holds deleted edge %+v", e)
		}
	}
	recAfterDel, ok := s.GetEdgeRecord(3, 1)
	if !ok {
		t.Fatal("edge record (3,1) missing after delete")
	}
	delCount := recAfterDel.Count()

	// Persistence round-trips raw generations.
	blob, err := s.SaveBytes()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(blob), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := loaded.GetEdgeRecord(3, 1); !ok || rec.Count() != delCount {
		t.Fatalf("loaded store edge count (3,1) = %v, want %d", rec, delCount)
	}

	// Background compression must preserve answers, the delete included.
	if !s.compressOnePending() {
		t.Fatal("compressOnePending found nothing to compress")
	}
	if n := rawGenerations(s); n != 0 {
		t.Fatalf("%d generations still raw after compression", n)
	}
	check("compressed")
	if rec, ok := s.GetEdgeRecord(3, 1); !ok || rec.Count() != delCount {
		t.Fatalf("post-compression edge count (3,1) = %v, want %d", rec, delCount)
	}
}

// TestDeleteDuringSealedLogBuild: deletes keep reaching what a build
// reads while it runs — a sealed log being compressed, or the three
// generations a tier merge consumes. One that lands before the build
// reads its input is gone from it; one after is replayed onto the new
// shard. Either way no deleted edge comes back.
func TestDeleteDuringSealedLogBuild(t *testing.T) {
	for _, tier := range []bool{false, true} {
		name := "compress"
		if tier {
			name = "tier merge"
		}
		t.Run(name, func(t *testing.T) {
			ns, es := testSchemas(t)
			s, err := New(nil, nil, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			s.cfg.CompactAfterRollovers = 3 // the tier merge's fan-in; no worker runs
			const n = 3000
			for i := 0; i < n; i++ {
				if err := s.AppendEdge(layout.Edge{Src: 1, Dst: int64(10 + i), Type: 0, Timestamp: int64(i)}); err != nil {
					t.Fatal(err)
				}
				if tier && (i+1)%(n/3) == 0 {
					freezeLog(t, s, true)
				}
			}
			build := s.mergeTier
			if !tier {
				freezeLog(t, s, false)
				build = s.compressOnePending
			}
			done := make(chan struct{})
			var built bool
			go func() {
				built = build()
				close(done)
			}()
			building := func() bool {
				select {
				case <-done:
					return false
				default:
					return true
				}
			}
			deleted := 0
			for i := 0; i < n && building(); i++ {
				deleted += s.DeleteEdges(1, 0, int64(10+i))
			}
			<-done
			if !built || rawGenerations(s) != 0 || s.NumFragments() != 2+2 {
				t.Fatalf("built = %v, %d generations raw, %d fragments; want one shard and the live log beside 2 primaries",
					built, rawGenerations(s), s.NumFragments())
			}
			got := 0
			if rec, ok := s.GetEdgeRecord(1, 0); ok {
				got = rec.Count()
			}
			t.Logf("%d deletes before the swap", deleted)
			if got != n-deleted {
				t.Fatalf("Count() = %d after %d of %d edges were deleted, want %d", got, deleted, n, n-deleted)
			}
		})
	}
}

// TestWritesRacingCompaction is the online-compaction torture test: 16
// goroutines append and delete continuously while a loop runs Compact
// or, in the second run, tier merges of two generations. Run under
// -race this doubles as the memory-model check for the snapshot/swap
// protocol. After quiescing no write may be lost and no delete undone,
// and a final compaction must leave every node whole (FragmentsOf == 1).
func TestWritesRacingCompaction(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		writesRacing(t, func(s *Store) (bool, error) { return true, s.Compact() })
	})
	t.Run("tier merge", func(t *testing.T) {
		writesRacing(t, func(s *Store) (bool, error) { return s.mergeTier(), nil })
	})
}

// TestRawSizeDuringCompaction: RawSize reads the primaries while
// Compact swaps fresh ones in, and the answer is the same before, during
// and after, since a compaction with no writes rebuilds the same flat
// files. Under -race it fails unless RawSize takes the store lock.
func TestRawSizeDuringCompaction(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(30, 100, 6)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := s.RawSize()
	done := make(chan error)
	go func() {
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			err = s.Compact()
		}
		done <- err
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if got := s.RawSize(); got != want {
				t.Fatalf("RawSize %d after compaction, %d before", got, want)
			}
			return
		default:
		}
		if got := s.RawSize(); got != want {
			t.Fatalf("RawSize %d during compaction, %d before", got, want)
		}
	}
}

func writesRacing(t *testing.T, merge func(*Store) (bool, error)) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(30, 100, 6)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 4, SamplingRate: 8, LogStoreThreshold: 4000})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.CompactAfterRollovers = 2 // the tier merges' fan-in; no worker runs
	const writers = 16
	perWriter := 120
	if testing.Short() {
		perWriter = 50
	}
	stop := make(chan struct{})
	var rounds, merges int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // maintenance loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			merged, err := merge(s)
			if err != nil {
				t.Error(err)
				return
			}
			rounds++
			if merged {
				merges++
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var writersWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			src := int64(5000 + g)
			for i := 0; i < perWriter; i++ {
				e := layout.Edge{Src: src, Dst: int64(6000 + i), Type: 3, Timestamp: int64(i + 1)}
				if err := s.AppendEdge(e); err != nil {
					t.Error(err)
					return
				}
				// Delete every fifth edge right after appending it: the
				// delete frequently lands mid-rebuild and must be
				// replayed at swap, not resurrected.
				if i%5 == 0 {
					if n := s.DeleteEdges(src, 3, e.Dst); n == 0 {
						t.Errorf("writer %d: delete of fresh edge (dst %d) removed nothing", g, e.Dst)
						return
					}
				}
				if err := s.AppendNode(int64(9000+g*perWriter+i), map[string]string{"name": fmt.Sprintf("r%d-%d", g, i)}); err != nil {
					t.Error(err)
					return
				}
				// Concurrent readers on the same keys keep the read
				// paths honest against swaps.
				if i%7 == 0 {
					s.GetNodeProps(src, nil)
					s.NeighborIDs(src, 3, nil)
				}
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	wg.Wait()
	if rounds == 0 {
		t.Fatal("maintenance loop never ran")
	}
	t.Logf("%d merges raced the writers", merges)

	// No lost writes, no resurrected deletes: quiesced, and again after
	// a final compaction.
	check := func(phase string) {
		t.Helper()
		for g := 0; g < writers; g++ {
			src := int64(5000 + g)
			var want []int64
			for i := 0; i < perWriter; i++ {
				if i%5 != 0 {
					want = append(want, int64(6000+i))
				}
			}
			got := s.NeighborIDs(src, 3, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: writer %d: neighbors = %d ids, want %d (first diff: %v)", phase, g, len(got), len(want), firstDiff(got, want))
			}
			for i := 0; i < perWriter; i++ {
				id := int64(9000 + g*perWriter + i)
				if vals, ok := s.GetNodeProps(id, []string{"name"}); !ok || vals[0] != fmt.Sprintf("r%d-%d", g, i) {
					t.Fatalf("%s: node %d = %v (ok=%v)", phase, id, vals, ok)
				}
			}
		}
	}
	check("quiesced")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	// Every node whole again after the quiesced compaction.
	for _, n := range nodes {
		if f := s.FragmentsOf(n.ID); f != 1 {
			t.Fatalf("FragmentsOf(%d) = %d after quiesced compaction, want 1", n.ID, f)
		}
	}
	for g := 0; g < writers; g++ {
		if f := s.FragmentsOf(int64(5000 + g)); f != 1 {
			t.Fatalf("FragmentsOf(%d) = %d after quiesced compaction, want 1", 5000+g, f)
		}
	}
	_ = edges
}

func firstDiff(got, want []int64) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("index %d: got %d want %d", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length: got %d want %d", len(got), len(want))
}

// TestBackgroundCompaction runs the worker end to end: a small
// threshold forces O(1) seals and the worker, at a fan-in of 2, merges
// adjacent same-tier generations in pairs. Where the primaries outweigh
// what is written only tier merges run, and a hot node's pieces stay
// within the tier bound 1 + (F-1)·⌈log_F rollovers⌉ + 2; where they hold
// nodes only, the generations soon outweigh them and the worker runs a
// full compaction. After quiescing every answer must match.
func TestBackgroundCompaction(t *testing.T) {
	t.Run("tier merges", func(t *testing.T) {
		s, nodes, edges := backgroundCompacted(t, 600)
		for src := int64(0); src < 5; src++ {
			if f := s.FragmentsOf(src); f > tierBound(s.Rollovers(), s.cfg.CompactAfterRollovers) {
				t.Fatalf("FragmentsOf(%d) = %d after %d rollovers, want at most %d",
					src, f, s.Rollovers(), tierBound(s.Rollovers(), s.cfg.CompactAfterRollovers))
			}
		}
		checkBackgroundAnswers(t, s, nodes, edges)
	})
	t.Run("full rebuild", func(t *testing.T) {
		s, nodes, edges := backgroundCompacted(t, 0)
		s.mu.RLock()
		rebuilt := s.primaryEdges > 0 // New built them with none
		s.mu.RUnlock()
		if !rebuilt {
			t.Fatal("the worker never rebuilt the primaries")
		}
		checkBackgroundAnswers(t, s, nodes, edges)
	})
}

// backgroundCompacted builds a worker-run store over 20 nodes and
// nEdges edges, appends 300 edges from nodes 0–4 with a threshold that
// seals every few, and waits until the worker owes nothing.
func backgroundCompacted(t *testing.T, nEdges int) (*Store, []layout.Node, []layout.Edge) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, nEdges, 7)
	s, err := New(nodes, edges, ns, es, Config{
		NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1500,
		CompactAfterRollovers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.bg == nil {
		t.Fatal("background worker not started")
	}
	for i := 0; i < 300; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 5), Dst: int64(700 + i), Type: 0, Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rollovers() == 0 {
		t.Fatal("no rollover despite tiny threshold")
	}
	deadline := time.Now().Add(10 * time.Second)
	for maintenanceDue(s) {
		if time.Now().After(deadline) {
			t.Fatalf("worker did not quiesce: %d raw gens", rawGenerations(s))
		}
		s.bg.kick()
		time.Sleep(10 * time.Millisecond)
	}
	return s, nodes, edges
}

// tierBound is the most pieces a record may lie over once the tier
// merges have caught up: the primary, F-1 generations per tier, a
// sealed log and the live log.
func tierBound(rollovers, fanIn int) int {
	tiers := 0
	for p := 1; p < rollovers; p *= fanIn {
		tiers++
	}
	return 1 + (fanIn-1)*tiers + 2
}

// checkBackgroundAnswers holds a store built by backgroundCompacted to
// what was written: each of nodes 0–4 has its 60 appended edges beside
// its original ones, and every node keeps its properties.
func checkBackgroundAnswers(t *testing.T, s *Store, nodes []layout.Node, edges []layout.Edge) {
	t.Helper()
	for src := int64(0); src < 5; src++ {
		want := 60
		for _, e := range edges {
			if e.Src == src && e.Type == 0 {
				want++
			}
		}
		rec, ok := s.GetEdgeRecord(src, 0)
		if !ok || rec.Count() != want {
			t.Fatalf("src %d: count = %v (ok=%v), want %d", src, rec, ok, want)
		}
	}
	for _, n := range nodes {
		if vals, ok := s.GetNodeProps(n.ID, []string{"name"}); !ok || vals[0] != n.Props["name"] {
			t.Fatalf("node %d = %v (ok=%v)", n.ID, vals, ok)
		}
	}
}

// TestDeletesDueFullCompaction: deletes on the primaries count toward
// the full rebuild beside the generations' bytes. One small generation
// is far from paying for a rebuild; deleting the primaries' edges makes
// it due, and the rebuild clears the marks it was due for.
func TestDeletesDueFullCompaction(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(20, 600, 7)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	s.cfg.CompactAfterRollovers = 2 // the trigger's switch; no worker runs
	for i := 0; i < 40; i++ {
		if err := s.AppendEdge(layout.Edge{Src: int64(i % 5), Dst: int64(700 + i), Type: 0, Timestamp: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	freezeLog(t, s, true)
	if s.fullCompactionDue() {
		t.Fatal("full rebuild due after one small generation")
	}
	for _, e := range edges {
		s.DeleteEdges(e.Src, e.Type, e.Dst)
	}
	if !s.fullCompactionDue() {
		t.Fatal("full rebuild not due once the primaries' edges are deleted")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.fullCompactionDue() || s.primaryEdges != 40 || len(s.deletedPhys) != 0 {
		t.Fatalf("after Compact: due %v, %d primary edges, %d marked records; want false, 40, 0",
			s.fullCompactionDue(), s.primaryEdges, len(s.deletedPhys))
	}
}

// maintenanceDue reports whether the worker still owes a job: a sealed
// log to compress, a full compaction or a tier merge.
func maintenanceDue(s *Store) bool {
	if rawGenerations(s) > 0 || s.fullCompactionDue() {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tierRunLocked(s.cfg.CompactAfterRollovers) >= 0
}

// TestWritePathMetricNames locks the write-path and online-compaction
// metric names into the default registry's exposition so renames fail
// CI (same style as the telemetry package's TestTraceMetricNames).
func TestWritePathMetricNames(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	// Touch the series so histograms register non-trivially.
	mCommits.Inc()
	mCommitRecords.Add(2)
	mWriteStallNs.Observe(1)
	mCompactionPauseNs.Observe(1)
	expo := telemetry.Default.Expose()
	for _, want := range []string{
		"zipg_group_commit_batches_total",
		"zipg_group_commit_records_total",
		"zipg_write_stall_ns",
		"zipg_compaction_pause_ns",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// rawGenerations counts the sealed generations still awaiting their
// compressed shard.
func rawGenerations(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, f := range s.gens[:s.curGenLocked()] {
		if f.log != nil {
			n++
		}
	}
	return n
}

// TestRolloverBuildsOffTheStoreLock: in a store without the worker the
// writer whose append crosses the threshold builds the shard itself,
// but with the store lock released — a reader keeps reading through
// the whole build. The count starts inside the commit's critical
// section (observers run there), where at most one read — snapshotted
// before the writer took the lock — can still be in flight; a second
// one completing before the append returns started during the build.
func TestRolloverBuildsOffTheStoreLock(t *testing.T) {
	ns, es := testSchemas(t)
	nodes, edges := testGraph(50, 200, 13)
	s, err := New(nodes, edges, ns, es, Config{NumShards: 2, SamplingRate: 8, LogStoreThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := int64(0); ; id = (id + 1) % 50 {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := s.GetNodeProps(id, []string{"name"}); !ok {
				t.Errorf("node %d missing", id)
				return
			}
			reads.Add(1)
			runtime.Gosched() // on one CPU, do not sit out a time slice per yield of the build
		}
	}()
	var atCommit int64 // written under s.mu by the appending goroutine's own commit
	s.Observe(func([]Event) { atCommit = reads.Load() })
	note := strings.Repeat("n", 90)
	during := int64(-1)
	for i := 0; during < 0; i++ {
		if i > 20000 {
			t.Fatal("no rollover after 20000 appends")
		}
		e := layout.Edge{Src: int64(i % 40), Dst: int64(1000 + i), Type: 1, Timestamp: int64(i + 1), Props: map[string]string{"note": note}}
		if err := s.AppendEdge(e); err != nil {
			t.Fatal(err)
		}
		if s.Rollovers() == 1 {
			during = reads.Load() - atCommit
		}
	}
	close(stop)
	<-done
	t.Logf("%d reads completed while the rollover's append ran", during)
	if during < 2 {
		t.Fatalf("%d reads completed while the rollover's append ran; the reader was locked out of the build", during)
	}
	if n := rawGenerations(s); n != 0 {
		t.Fatalf("%d raw generations left after the sealing writer returned", n)
	}
}

// rolloverScript is a seeded single-writer op script that rolls a
// 2 KiB log over many times: node rewrites, edge appends (some to
// endpoints that do not exist yet, one a self-loop), edge and node
// deletes, and a deleted node appended again.
func rolloverScript(t *testing.T, s *Store, edges []layout.Edge) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		var err error
		switch k := rng.Intn(10); {
		case k < 6:
			err = s.AppendEdge(layout.Edge{
				Src: int64(rng.Intn(70)), Dst: int64(rng.Intn(70)), Type: int64(rng.Intn(3)), Timestamp: int64(20000 + i),
				Props: map[string]string{"weight": fmt.Sprint(rng.Intn(5))},
			})
		case k < 8:
			id := int64(rng.Intn(70))
			err = s.AppendNode(id, map[string]string{"location": "Madison", "name": fmt.Sprintf("upd%d-%d", id, i)})
		case k == 8:
			e := edges[rng.Intn(len(edges))]
			s.DeleteEdges(e.Src, e.Type, e.Dst)
		default:
			s.DeleteNode(int64(rng.Intn(60)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendEdge(layout.Edge{Src: 65, Dst: 65, Type: 0, Timestamp: 30000}); err != nil {
		t.Fatal(err)
	}
}

// TestRolloverModesAgree: BackgroundCompaction chooses who compresses
// a sealed generation and nothing else. One op script run with and
// without the worker rolls over the same number of times, leaves no
// generation raw once the work is done, and answers the query battery
// identically.
func TestRolloverModesAgree(t *testing.T) {
	run := func(worker bool) (storeAnswers, int) {
		ns, es := testSchemas(t)
		nodes, edges := testGraph(60, 240, 3)
		s, err := New(nodes, edges, ns, es, Config{
			NumShards: 3, SamplingRate: 8, LogStoreThreshold: 2 << 10, BackgroundCompaction: worker,
		})
		if err != nil {
			t.Fatal(err)
		}
		if (s.bg != nil) != worker {
			t.Fatalf("worker running = %v, want %v", s.bg != nil, worker)
		}
		rolloverScript(t, s, edges)
		if worker {
			// The writers have stopped; the worker still owes the
			// generations sealed last.
			for deadline := time.Now().Add(10 * time.Second); rawGenerations(s) > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("worker left %d generations raw", rawGenerations(s))
				}
			}
		}
		s.Close()
		if n := rawGenerations(s); n != 0 {
			t.Fatalf("worker=%v: %d raw generations left", worker, n)
		}
		return queryBattery(t, s), s.Rollovers()
	}
	inline, inlineRollovers := run(false)
	bg, bgRollovers := run(true)
	if inlineRollovers < 5 || inlineRollovers != bgRollovers {
		t.Fatalf("rollovers: %d by the writer, %d with the worker; want equal and at least 5", inlineRollovers, bgRollovers)
	}
	if !reflect.DeepEqual(inline, bg) {
		t.Fatal("answers differ between a writer-compressed and a worker-compressed store")
	}
}

// TestHasNodeExtractsNothing: existence is an index question. On a
// fragmented store HasNode agrees with the definition it replaces — a
// property read that asks for no property — for present, absent,
// deleted, re-appended and endpoint-created nodes, and 1,000 calls
// extract no byte from a compressed store.
func TestHasNodeExtractsNothing(t *testing.T) {
	s := buildFragmentedStore(t, 8)
	if err := s.AppendNode(8, map[string]string{"name": "back"}); err != nil { // deleted by the fixture
		t.Fatal(err)
	}
	if err := s.AppendEdge(layout.Edge{Src: 3, Dst: 77, Type: 0, Timestamp: 1}); err != nil { // creates 77
		t.Fatal(err)
	}
	s.DeleteNode(77)
	if err := s.AppendEdge(layout.Edge{Src: 78, Dst: 4, Type: 0, Timestamp: 2}); err != nil { // creates 78
		t.Fatal(err)
	}
	freezeLog(t, s, false) // a raw generation, and an empty live log
	if err := s.AppendNode(79, nil); err != nil {
		t.Fatal(err)
	}
	var present, absent int
	for id := int64(0); id < 100; id++ {
		_, want := s.GetNodeProps(id, []string{})
		if want {
			present++
		} else {
			absent++
		}
		if got := s.HasNode(id); got != want {
			t.Errorf("HasNode(%d) = %v, a property read says %v", id, got, want)
		}
	}
	if present < 50 || absent < 20 || !s.HasNode(8) || s.HasNode(1) || s.HasNode(77) || !s.HasNode(78) || !s.HasNode(79) {
		t.Fatalf("fixture: %d present, %d absent; 8:%v 1:%v 77:%v 78:%v 79:%v", present, absent,
			s.HasNode(8), s.HasNode(1), s.HasNode(77), s.HasNode(78), s.HasNode(79))
	}
	extracted, _ := succinctWork(func() {
		for i := 0; i < 1000; i++ {
			s.HasNode(int64(i % 100))
		}
	})
	if extracted != 0 {
		t.Fatalf("1000 HasNode calls extracted %v bytes from compressed stores", extracted)
	}
}
