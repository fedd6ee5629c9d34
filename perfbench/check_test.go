package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

// These tests show that each correctness check the benchmark relies on
// passes on correct output and fails on planted faults. Run them with
// `go test` from this directory.

func smallGraph(seed int64) ([]graph.Edge, int) {
	const n = 600
	return gen.RMAT(gen.RMATConfig{NumVertices: n, NumEdges: 4 * n, A: 0.57, B: 0.19, C: 0.19, Seed: seed, MaxWeight: 64}), n
}

// streamed returns a native-engine session and the mirror after the
// same generated stream.
func streamed(t *testing.T, seed int64, drop bool) (*tdgraph.Session, *mirror) {
	t.Helper()
	edges, n := smallGraph(seed)
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, n, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	g := &streamGen{rng: rand.New(rand.NewSource(seed)), m: newMirror(n, edges)}
	for i := 0; i < 40; i++ {
		b := g.batch(16, 0.75)
		if drop && i == 20 {
			// The program loses one new edge the mirror keeps.
			for j, u := range b {
				if !u.Delete && !s.Graph().HasEdge(u.Edge.Src, u.Edge.Dst) {
					b = append(b[:j:j], b[j+1:]...)
					break
				}
			}
		}
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return s, g.m
}

func TestCheckSSSPPassesCorrectStates(t *testing.T) {
	s, m := streamed(t, 1, false)
	if err := checkSSSP("session", s.States(), s.NumEdges(), m); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSSSPCatchesWrongState(t *testing.T) {
	s, m := streamed(t, 2, false)
	states := append([]float64(nil), s.States()...)
	for v, x := range states {
		if v != 0 && !math.IsInf(x, 1) {
			states[v] = x + 1
			break
		}
	}
	if err := checkSSSP("planted", states, s.NumEdges(), m); err == nil {
		t.Fatal("a wrong state passed the Dijkstra check")
	}
}

func TestCheckSSSPCatchesDroppedEdge(t *testing.T) {
	s, m := streamed(t, 3, true)
	err := checkSSSP("dropped", s.States(), s.NumEdges(), m)
	if err == nil || !strings.Contains(err.Error(), "edges") {
		t.Fatalf("a dropped edge was not caught by the edge count: %v", err)
	}
}

// TestMirrorFollowsStore applies the same random stream, including
// re-weights, repeats and deletions of absent edges, to the mirror and
// to the program's graph store, and expects the same live edge set.
func TestMirrorFollowsStore(t *testing.T) {
	edges, n := smallGraph(4)
	st := graph.NewStoreFromEdges(n, edges)
	g := &streamGen{rng: rand.New(rand.NewSource(4)), m: newMirror(n, edges)}
	for i := 0; i < 200; i++ {
		st.Apply(g.batch(32, 0.6))
	}
	if st.NumEdges() != g.m.numEdges() {
		t.Fatalf("store has %d edges, mirror %d", st.NumEdges(), g.m.numEdges())
	}
	for _, e := range st.EdgeList() {
		i, ok := g.m.idx[edgeKey(e.Src, e.Dst)]
		if !ok || g.m.edges[i].Weight != e.Weight {
			t.Fatalf("store edge %+v is not in the mirror with that weight", e)
		}
	}
}

func TestBatchesNameEachEdgeOnce(t *testing.T) {
	edges, n := smallGraph(5)
	g := &streamGen{rng: rand.New(rand.NewSource(5)), m: newMirror(n, edges)}
	for i := 0; i < 50; i++ {
		seen := make(map[uint64]bool)
		for _, u := range g.batch(64, 0.75) {
			k := edgeKey(u.Edge.Src, u.Edge.Dst)
			if seen[k] {
				t.Fatalf("batch %d names %d->%d twice", i, u.Edge.Src, u.Edge.Dst)
			}
			seen[k] = true
		}
	}
}

func TestPageRankReference(t *testing.T) {
	edges, n := smallGraph(6)
	b := graph.NewBuilderFromEdges(n, edges)
	want := pageRank(n, edges, 0.85)
	got := algo.Reference(algo.NewPageRank(), b.Snapshot())
	if err := sameStates(got, want, prTolerance); err != nil {
		t.Fatalf("program's PageRank fixpoint vs the reference: %v", err)
	}
	got[n/2] += 10 * prTolerance * math.Max(1, got[n/2])
	if sameStates(got, want, prTolerance) == nil {
		t.Fatal("a wrong PageRank state passed the check")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "batch", Start: 0, End: 100, Parent: -1},
		{Name: "fsync", Start: 10, End: 30, Parent: 0},
		{Name: "fsync", Start: 20, End: 40, Parent: 0},  // overlaps the first
		{Name: "fsync", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	for _, lt := range selfTimes(spans) {
		if lt.Name == "batch" && lt.Self != 100-30-10 {
			t.Fatalf("batch self time %v, want 60ns", lt.Self)
		}
	}
}
