package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// The apply workload's input: the LJ RMAT preset at applyScale with its
// generator seeded from --seed, SSSP from vertex 0, and rounds of
// applyTinyPerRound tiny batches plus one burst, 75% additions.
const (
	applyPreset       = "LJ"
	applyScale        = 1.0
	applyTiny         = 4
	applyBurst        = 2048
	applyTinyPerRound = 31
	applyAddFrac      = 0.75
	applyQueryReads   = 8
	// applyRoundsPerSecond sets a run's fixed amount of work: a run of
	// --seconds s streams seconds×applyRoundsPerSecond rounds, about
	// --seconds of work on the reference host. The work is fixed rather
	// than the time so that every run, on any commit, streams the same
	// batches into a graph of the same size.
	applyRoundsPerSecond = 120
	// applyLadderRounds is how many rounds the traced ladder replays
	// through each rung.
	applyLadderRounds = 48
)

// sessionCores is the worker count tdgraph.NewSession gives the native
// engine when SessionOptions.Cores is unset, as the apply workload and
// the serving members leave it.
const sessionCores = 8

// applyRoundUpdates is the number of updates in one round.
const applyRoundUpdates = applyTinyPerRound*applyTiny + applyBurst

func applyGraph(seed int64) ([]graph.Edge, int, error) {
	p, err := gen.PresetByName(applyPreset)
	if err != nil {
		return nil, 0, err
	}
	p.Seed = seed
	edges, nv := p.Generate(applyScale)
	return edges, nv, nil
}

// applyRound draws one round: the burst sits in the middle so every
// round starts and ends with tiny batches.
func (g *streamGen) applyRound() [][]graph.Update {
	out := make([][]graph.Update, 0, applyTinyPerRound+1)
	for i := 0; i < applyTinyPerRound; i++ {
		if i == applyTinyPerRound/2 {
			out = append(out, g.batch(applyBurst, applyAddFrac))
		}
		out = append(out, g.batch(applyTiny, applyAddFrac))
	}
	return out
}

// querySet is one per-batch query: point reads through State and the
// same number of reads from one States call.
type querySet struct {
	point, vec [applyQueryReads]graph.VertexID
}

func drawQuery(rng *rand.Rand, n int) querySet {
	var q querySet
	for i := range q.point {
		q.point[i] = graph.VertexID(rng.Intn(n))
		q.vec[i] = graph.VertexID(rng.Intn(n))
	}
	return q
}

func (q *querySet) run(s *tdgraph.Session) float64 {
	var sum float64
	for _, v := range q.point {
		sum += s.State(v)
	}
	st := s.States()
	for _, v := range q.vec {
		sum += st[v]
	}
	return sum
}

// querySink keeps query results live so the reads cannot be elided.
var querySink float64

// applyStats is what one measuring pass over the apply stream saw. A
// tiny batch or a query is far shorter than a slice of CPU the host
// steals from this guest, so medians of their wall times hold still; a
// burst or a round is not, and is timed in CPU time too.
type applyStats struct {
	batches, queries int
	lat, qlat        []time.Duration // wall time per batch and per query
	cpuLat           []time.Duration // CPU time per batch
	cpuBurst         []time.Duration // CPU time per burst
	stream           time.Duration   // CPU time of the untraced rounds
	rounds           []time.Duration // wall time per untraced round
	tracedRounds     []time.Duration // wall time per traced round
}

// applyLoop streams the given number of rounds into sess, timing each
// batch, query and round in wall time and each batch and round in CPU
// time too,
// and checking the edge count after every round and the states against
// Dijkstra after rounds 1, 2, 4, 8, ... and at the end.
func applyLoop(r *run, sess *tdgraph.Session, g *streamGen, qrng *rand.Rand, rounds int, tr *tracer, seq *int64) applyStats {
	var st applyStats
	for round := 1; round <= rounds; round++ {
		// With a tracer, every second round records spans, so traced and
		// untraced rounds interleave over the same stretch of stream.
		tr := tr
		if round%2 == 1 {
			tr = nil
		}
		batches := g.applyRound()
		queries := make([]querySet, len(batches))
		for i := range queries {
			queries[i] = drawQuery(qrng, g.m.n)
		}
		rs := tr.begin("apply.round", 0, -1)
		t0, ct0 := time.Now(), cpuTime()
		for i, b := range batches {
			*seq++
			sp := tr.begin("tdgraph.Session.ApplyBatch", *seq, rs)
			c0 := cpuTime()
			w0 := time.Now()
			_, err := sess.ApplyBatch(b)
			d := time.Since(w0)
			cd := cpuTime() - c0
			tr.end(sp)
			st.batches++
			if err != nil {
				r.failed++
				r.check(fmt.Errorf("apply: batch %d: %w", *seq, err))
				continue
			}
			st.lat = append(st.lat, d)
			st.cpuLat = append(st.cpuLat, cd)
			if len(b) == applyBurst {
				st.cpuBurst = append(st.cpuBurst, cd)
			}

			sp = tr.begin("tdgraph.Session.query", *seq, rs)
			q0 := time.Now()
			querySink += queries[i].run(sess)
			qd := time.Since(q0)
			tr.end(sp)
			st.queries++
			st.qlat = append(st.qlat, qd)
		}
		rd := time.Since(t0)
		if tr == nil {
			st.rounds = append(st.rounds, rd)
			st.stream += cpuTime() - ct0
		} else {
			st.tracedRounds = append(st.tracedRounds, rd)
		}
		tr.end(rs)
		if sess.NumEdges() != g.m.numEdges() {
			r.check(fmt.Errorf("apply: round %d: NumEdges %d, mirror has %d", round, sess.NumEdges(), g.m.numEdges()))
		}
		if round&(round-1) == 0 {
			r.check(checkSSSP(fmt.Sprintf("apply: round %d", round), sess.States(), sess.NumEdges(), g.m))
		}
	}
	r.check(checkSSSP("apply: end of stream", sess.States(), sess.NumEdges(), g.m))
	r.attempted += st.batches + st.queries
	return st
}

func runApply(o options) (*run, error) {
	edges, nv, err := applyGraph(o.seed)
	if err != nil {
		return nil, err
	}
	sess, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	g := &streamGen{rng: rand.New(rand.NewSource(o.seed)), m: newMirror(nv, edges)}
	setup := cpuTime()

	r := newRun()
	r.check(checkSSSP("apply: initial fixpoint", sess.States(), sess.NumEdges(), g.m))
	qrng := rand.New(rand.NewSource(o.seed + 1))
	rounds := max(2, int(o.seconds*applyRoundsPerSecond))
	var seq int64
	if !o.trace {
		st := applyLoop(r, sess, g, qrng, rounds, nil, &seq)
		r.commonMetrics(setup)
		r.set("updates_per_s", "updates/s", applyBurst/durQuantile(st.cpuBurst, 0.5).Seconds())
		r.set("batch_p50_us", "us", usOf(durQuantile(st.lat, 0.50)))
		r.set("batch_p99_us", "us", usOf(durQuantile(st.cpuLat, 0.99)))
		r.set("query_p50_us", "us", usOf(durQuantile(st.qlat, 0.50)))
		r.set("harness_s", "s", st.stream.Seconds())
		return r, nil
	}
	tr := newTracer()
	st := applyLoop(r, sess, g, qrng, rounds, tr, &seq)
	r.overhead(durQuantile(st.rounds, 0.5), durQuantile(st.tracedRounds, 0.5))
	if err := allLadders(r, o, tr); err != nil {
		return nil, err
	}
	writeTrace(tr, "apply", o)
	return r, nil
}

// ladderBatch is one batch of the ladder stream with its size class.
type ladderBatch struct {
	b     []graph.Update
	burst bool
}

// applyLadder replays one fixed stream through each rung of the apply
// path — graph.Store.Apply, native.Session.ApplyBatch,
// tdgraph.Session.ApplyBatch — each on identical fresh state, and
// reports the per-layer metrics from the rungs' spans and counters.
func applyLadder(r *run, o options, tr *tracer) error {
	edges, nv, err := applyGraph(o.seed)
	if err != nil {
		return err
	}
	g := &streamGen{rng: rand.New(rand.NewSource(o.seed + 2)), m: newMirror(nv, edges)}
	var stream []ladderBatch
	for i := 0; i < applyLadderRounds; i++ {
		for _, b := range g.applyRound() {
			stream = append(stream, ladderBatch{b: b, burst: len(b) == applyBurst})
		}
	}
	final := g.m
	tr.reserve(4 * len(stream))

	// Rung 1: the graph store alone.
	st := graph.NewStoreFromEdges(nv, edges)
	var storeTime time.Duration
	var updates int
	for i, lb := range stream {
		sp := tr.begin("graph.Store.Apply", int64(i+1), -1)
		s := time.Now()
		st.Apply(lb.b)
		storeTime += time.Since(s)
		tr.end(sp)
		updates += len(lb.b)
	}
	if st.NumEdges() != final.numEdges() {
		r.check(fmt.Errorf("ladder graph.Store: %d edges, mirror has %d", st.NumEdges(), final.numEdges()))
	}
	r.set("graph.store_ns_per_update", "ns", float64(storeTime.Nanoseconds())/float64(updates))
	st = nil

	// Rung 2: the native engine with the worker count the session in
	// rung 3 gives it, so the two rungs differ by the wrapper alone.
	ns := native.NewSession(algo.NewSSSP(0), graph.NewStoreFromEdges(nv, edges), native.Config{Workers: sessionCores})
	before := ns.Metrics()
	var small, large time.Duration
	var smallUpd, largeUpd, tiny int
	m0 := memStats()
	for i, lb := range stream {
		sp := tr.begin("native.Session.ApplyBatch", int64(i+1), -1)
		s := time.Now()
		ns.ApplyBatch(lb.b)
		d := time.Since(s)
		tr.end(sp)
		if lb.burst {
			large += d
			largeUpd += len(lb.b)
		} else {
			small += d
			smallUpd += len(lb.b)
			tiny++
		}
	}
	m1 := memStats()
	after := ns.Metrics()
	r.check(checkSSSP("ladder native.Session", ns.StatesCopy(), ns.Store().NumEdges(), final))
	ns.Close()
	r.set("native.ns_per_update.small", "ns", float64(small.Nanoseconds())/float64(smallUpd))
	r.set("native.ns_per_update.large", "ns", float64(large.Nanoseconds())/float64(largeUpd))
	r.set("native.allocs_per_batch", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(stream)))
	r.set("native.edges_per_update", "count",
		float64(after.Get(stats.CtrEdgesProcessed)-before.Get(stats.CtrEdgesProcessed))/float64(updates))
	r.set("native.tdtu_skips_per_update", "count",
		float64(after.Get(stats.CtrNativeTDTUSkips)-before.Get(stats.CtrNativeTDTUSkips))/float64(updates))

	// Rung 3: the public session on the native engine, default options,
	// with the workload's per-batch query.
	sess, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel})
	if err != nil {
		return err
	}
	defer sess.Close()
	qrng := rand.New(rand.NewSource(o.seed + 3))
	queries := make([]querySet, len(stream))
	for i := range queries {
		queries[i] = drawQuery(qrng, nv)
	}
	var sessTiny time.Duration
	var cpuLat, bursts, cpuBursts []time.Duration
	qlat := make([]time.Duration, 0, len(stream))
	m0 = memStats()
	for i, lb := range stream {
		sp := tr.begin("tdgraph.Session.ApplyBatch", int64(i+1), -1)
		c0 := cpuTime()
		s := time.Now()
		_, err := sess.ApplyBatch(lb.b)
		d := time.Since(s)
		cd := cpuTime() - c0
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("ladder tdgraph.Session: batch %d: %w", i+1, err)
		}
		cpuLat = append(cpuLat, cd)
		if lb.burst {
			bursts = append(bursts, d)
			cpuBursts = append(cpuBursts, cd)
		} else {
			sessTiny += d
		}
		sp = tr.begin("tdgraph.Session.query", int64(i+1), -1)
		q0 := time.Now()
		querySink += queries[i].run(sess)
		qlat = append(qlat, time.Since(q0))
		tr.end(sp)
	}
	m1 = memStats()
	r.check(checkSSSP("ladder tdgraph.Session", sess.States(), sess.NumEdges(), final))
	r.set("tdgraph.wrapper_ns_per_batch", "ns", float64((sessTiny-small).Nanoseconds())/float64(tiny))
	r.set("tdgraph.allocs_per_batch", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(stream)))
	r.set("tdgraph.bytes_per_batch", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(stream)))
	r.set("tdgraph.query_ns", "ns", float64(durQuantile(qlat, 0.5).Nanoseconds()))
	// The CPU-time and wall-time twins of the gated apply figures: the
	// gap between a burst's wall and CPU time is what the engine's
	// workers overlap, or wait.
	r.set("tdgraph.batch_cpu_p50_us", "us", usOf(durQuantile(cpuLat, 0.5)))
	r.set("tdgraph.burst_wall_us", "us", usOf(durQuantile(bursts, 0.5)))
	r.set("tdgraph.burst_cpu_us", "us", usOf(durQuantile(cpuBursts, 0.5)))
	fmt.Fprintf(os.Stderr, "perfbench: apply ladder: %d batches (%d tiny), %d updates per rung\n", len(stream), tiny, updates)
	return nil
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
