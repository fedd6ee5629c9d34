package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// mirror is the benchmark's own copy of the live edge set, keyed by
// (src,dst). It follows the graph's update rules, written out here
// rather than borrowed from the program: an addition of an edge that
// exists with another weight re-weights it, one with the same weight is
// skipped, and a deletion of an edge that does not exist is skipped.
// The edge slice keeps the live edges in a dense array so the workload
// generators can pick a random live edge in O(1).
type mirror struct {
	n     int
	idx   map[uint64]int
	edges []graph.Edge
}

func edgeKey(src, dst graph.VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

func newMirror(n int, edges []graph.Edge) *mirror {
	m := &mirror{n: n, idx: make(map[uint64]int, len(edges)), edges: make([]graph.Edge, 0, len(edges))}
	for _, e := range edges {
		m.apply(graph.Update{Edge: e})
	}
	return m
}

func (m *mirror) numEdges() int { return len(m.edges) }

// apply applies one update and grows the vertex count the way the
// store does when an addition names a new vertex.
func (m *mirror) apply(u graph.Update) {
	k := edgeKey(u.Edge.Src, u.Edge.Dst)
	i, ok := m.idx[k]
	if u.Delete {
		if !ok {
			return
		}
		last := len(m.edges) - 1
		m.edges[i] = m.edges[last]
		m.idx[edgeKey(m.edges[i].Src, m.edges[i].Dst)] = i
		m.edges = m.edges[:last]
		delete(m.idx, k)
		return
	}
	if hi := int(max(u.Edge.Src, u.Edge.Dst)) + 1; hi > m.n {
		m.n = hi
	}
	if ok {
		m.edges[i].Weight = u.Edge.Weight
		return
	}
	m.idx[k] = len(m.edges)
	m.edges = append(m.edges, u.Edge)
}

// streamGen draws update batches against a mirror, applying each update
// to the mirror as it draws it, so deletions always name an edge that is
// live at that point of the stream. A third of the additions are new
// edges with integer weights in [1,64]; the rest re-weight a live edge
// or repeat it unchanged, and a few deletions name an absent edge, so
// the weight-update and skip rules are exercised too. With 75% additions
// that mix keeps the live edge count within a few percent of the initial
// graph's, so a run streams into a graph of the same size from start to
// end.
//
// A batch names each edge at most once. The native engine relaxes every
// edge a batch added, even one the same batch then deleted or re-weighted
// upward, and so keeps states that no live path supports; batches that
// touch one edge twice are left out of the stream until that is mended.
type streamGen struct {
	rng *rand.Rand
	m   *mirror
}

func (g *streamGen) batch(size int, addFrac float64) []graph.Update {
	b := make([]graph.Update, 0, size)
	named := make(map[uint64]bool, size)
	for len(b) < size {
		var u graph.Update
		r := g.rng.Float64()
		switch {
		case r < addFrac/3 || len(g.m.edges) == 0:
			u = graph.Update{Edge: g.randomEdge()}
		case r < addFrac*5/6:
			e := g.m.edges[g.rng.Intn(len(g.m.edges))]
			e.Weight = float32(1 + g.rng.Intn(64))
			u = graph.Update{Edge: e}
		case r < addFrac:
			u = graph.Update{Edge: g.m.edges[g.rng.Intn(len(g.m.edges))]}
		case r < addFrac+(1-addFrac)*0.95:
			u = graph.Update{Edge: g.m.edges[g.rng.Intn(len(g.m.edges))], Delete: true}
		default:
			e := g.randomEdge()
			if _, live := g.m.idx[edgeKey(e.Src, e.Dst)]; live {
				continue
			}
			u = graph.Update{Edge: e, Delete: true}
		}
		k := edgeKey(u.Edge.Src, u.Edge.Dst)
		if named[k] {
			continue
		}
		named[k] = true
		g.m.apply(u)
		b = append(b, u)
	}
	return b
}

func (g *streamGen) randomEdge() graph.Edge {
	for {
		src := graph.VertexID(g.rng.Intn(g.m.n))
		dst := graph.VertexID(g.rng.Intn(g.m.n))
		if src != dst {
			return graph.Edge{Src: src, Dst: dst, Weight: float32(1 + g.rng.Intn(64))}
		}
	}
}

// dijkstra computes single-source shortest paths over an edge list with
// a binary heap. Distances are float64 sums of the float32 weights, the
// same arithmetic the engines use, so with integer weights the result
// is exact and comparable bit for bit.
func dijkstra(n int, edges []graph.Edge, root graph.VertexID) []float64 {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e.Src+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	dst := make([]graph.VertexID, len(edges))
	w := make([]float32, len(edges))
	pos := append([]int(nil), off[:n]...)
	for _, e := range edges {
		dst[pos[e.Src]], w[pos[e.Src]] = e.Dst, e.Weight
		pos[e.Src]++
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if int(root) >= n {
		return dist
	}
	dist[root] = 0
	h := &distHeap{{root, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for i := off[it.v]; i < off[it.v+1]; i++ {
			if nd := it.d + float64(w[i]); nd < dist[dst[i]] {
				dist[dst[i]] = nd
				heap.Push(h, distItem{dst[i], nd})
			}
		}
	}
	return dist
}

type distItem struct {
	v graph.VertexID
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// pageRank iterates r[v] = (1-d) + d·Σ_{u→v} r[u]/outdeg(u) by Jacobi
// sweeps until no rank moves by more than 1e-12.
func pageRank(n int, edges []graph.Edge, damp float64) []float64 {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	r := make([]float64, n)
	next := make([]float64, n)
	for i := range r {
		r[i] = 1 - damp
	}
	for iter := 0; iter < 10000; iter++ {
		for i := range next {
			next[i] = 1 - damp
		}
		for _, e := range edges {
			next[e.Dst] += damp * r[e.Src] / float64(deg[e.Src])
		}
		moved := 0.0
		for i := range r {
			moved = math.Max(moved, math.Abs(next[i]-r[i]))
		}
		r, next = next, r
		if moved < 1e-12 {
			break
		}
	}
	return r
}

// sameStates reports the first vertex where got and want differ: bit
// for bit when tol is 0, else by more than tol relative to max(1,|want|).
func sameStates(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d states, reference has %d", len(got), len(want))
	}
	for v := range got {
		g, w := got[v], want[v]
		if tol == 0 {
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("vertex %d: state %v, reference %v", v, g, w)
			}
			continue
		}
		if math.Abs(g-w) > tol*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("vertex %d: state %v, reference %v (tolerance %g)", v, g, w, tol)
		}
	}
	return nil
}

// checkSSSP compares states against an independent Dijkstra over the
// mirror's live edges, and the program's edge count against the
// mirror's.
func checkSSSP(what string, states []float64, numEdges int, m *mirror) error {
	if numEdges != m.numEdges() {
		return fmt.Errorf("%s: %d edges, mirror has %d", what, numEdges, m.numEdges())
	}
	if err := sameStates(states, dijkstra(m.n, m.edges, 0), 0); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}
