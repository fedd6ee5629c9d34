package main

import (
	"fmt"
	"os"
	"time"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/bench"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// The paper-fig cell set: Fig 10's software schemes on SSSP and
// PageRank over two presets, with the harness defaults for everything
// else (64 simulated cores, inline backend, 5% batches, 75% additions)
// and the batch seeded from --seed. FR and DL are left out: their
// generators emit repeated (src,dst) pairs, so the harness's batch can
// add an edge and re-weight it, which the engines' repair mishandles.
var (
	paperDatasets = []string{"LJ", "OR"}
	paperAlgos    = []string{"sssp", "pagerank"}
	paperSchemes  = []string{"Ligra-o", "TDGraph-S", "TDGraph-H"}
)

const paperScale = 0.1

// prTolerance bounds PageRank states against the converged fixpoint,
// relative to max(1, rank): the engines stop pushing deltas below
// their epsilon, so they stop a little short of it.
const prTolerance = 1e-4

func paperSpecs(seed int64) []bench.Spec {
	var specs []bench.Spec
	for _, a := range paperAlgos {
		for _, ds := range paperDatasets {
			for _, sc := range paperSchemes {
				specs = append(specs, bench.Spec{Dataset: ds, Scale: paperScale, Algo: a, Scheme: sc, Seed: seed})
			}
		}
	}
	return specs
}

func prepareAll(specs []bench.Spec) error {
	for _, s := range specs {
		if _, err := bench.Prepare(s); err != nil {
			return err
		}
	}
	return nil
}

// batchUpdates is the length of a cell's measured batch.
func batchUpdates(s bench.Spec) int {
	res := bench.PreparedResult(s)
	return res.Added + res.Deleted + res.WeightChanged + res.Skipped
}

// paperStats is what one measuring pass over the cell set saw, from the
// untraced rounds unless named otherwise. A cell runs for tenths of a
// second, long enough for the CPU the host steals from this guest to
// move its wall time, so cells and rounds are timed in CPU time; the
// counter read takes microseconds and is timed in wall time.
type paperStats struct {
	cells  int
	cell   [][]time.Duration // per cell: its bench.Run each round
	query  []time.Duration   // one read of every counter of one cell's result
	hRate  []float64         // per round: TDGraph-H batch updates per second of its cells
	rounds []time.Duration   // per round: the whole cell set through bench.Run
	traced []time.Duration   // rounds run with spans on
}

// paperRounds runs the whole cell set through bench.Run until dur of CPU
// time has passed, checking that every cell's simulated cycles repeat
// exactly and that TDGraph-H beats Ligra-o on every dataset and
// algorithm. After each cell it reads every counter of the result's
// stats.Collector, the query a report over the cells makes.
func paperRounds(r *run, specs []bench.Spec, cycles []float64, dur time.Duration, tr *tracer) paperStats {
	st := paperStats{cell: make([][]time.Duration, len(specs))}
	start := cpuTime()
	// With a tracer, every second round records spans, so traced and
	// untraced rounds interleave; there are at least two rounds then.
	minRounds := 1
	if tr != nil {
		minRounds = 2
	}
	for round := 1; round <= minRounds || cpuTime()-start < dur; round++ {
		tr := tr
		if round%2 == 1 {
			tr = nil
		}
		rs := tr.begin("paper.round", 0, -1)
		t0 := cpuTime()
		var hUpdates int
		var hTime time.Duration
		for i, s := range specs {
			sp := tr.begin("bench.Run", int64(i+1), rs)
			c0 := cpuTime()
			res, err := bench.Run(s)
			d := cpuTime() - c0
			tr.end(sp)
			st.cells++
			if err != nil {
				r.failed++
				r.check(fmt.Errorf("paper-fig: %s/%s/%s: %w", s.Dataset, s.Algo, s.Scheme, err))
				continue
			}
			sp = tr.begin("stats.Collector.Snapshot", int64(i+1), rs)
			q0 := time.Now()
			counterSink += len(res.Collector.Snapshot())
			qd := time.Since(q0)
			tr.end(sp)
			if tr == nil {
				st.cell[i] = append(st.cell[i], d)
				st.query = append(st.query, qd)
			}
			if s.Scheme == "TDGraph-H" {
				hUpdates += batchUpdates(s)
				hTime += d
			}
			if cycles[i] == 0 {
				cycles[i] = res.Cycles
			} else if res.Cycles != cycles[i] {
				r.check(fmt.Errorf("paper-fig: %s/%s/%s: %v cycles, an earlier run of the same seed took %v",
					s.Dataset, s.Algo, s.Scheme, res.Cycles, cycles[i]))
			}
		}
		if tr == nil {
			st.rounds = append(st.rounds, cpuTime()-t0)
			st.hRate = append(st.hRate, float64(hUpdates)/hTime.Seconds())
		} else {
			st.traced = append(st.traced, cpuTime()-t0)
		}
		tr.end(rs)
	}
	r.attempted += 2 * st.cells
	for i := 0; i+len(paperSchemes) <= len(specs); i += len(paperSchemes) {
		ligra, h := cycles[i], cycles[i+len(paperSchemes)-1]
		if ligra > 0 && h > 0 && !(h < ligra) {
			s := specs[i]
			r.check(fmt.Errorf("paper-fig: %s/%s: TDGraph-H took %v cycles, Ligra-o %v", s.Dataset, s.Algo, h, ligra))
		}
	}
	return st
}

// counterSink keeps counter reads live so they cannot be elided.
var counterSink int

// verifyCells processes every cell once more through the harness's
// runtime and compares its final states with a reference computed here
// — Dijkstra for SSSP, Jacobi iteration for PageRank — and its cycles
// with the timed runs'.
func verifyCells(r *run, specs []bench.Spec, cycles []float64) {
	refs := make(map[string][]float64)
	for i, s := range specs {
		r.attempted++
		rt, sys, err := bench.BuildForTest(s, stats.NewCollector())
		if err != nil {
			r.failed++
			r.check(fmt.Errorf("paper-fig verify %s/%s/%s: %w", s.Dataset, s.Algo, s.Scheme, err))
			continue
		}
		sys.Process(bench.PreparedResult(s))
		tol := 0.0
		if s.Algo == "pagerank" {
			tol = prTolerance
		}
		key := s.Dataset + "/" + s.Algo
		ref, ok := refs[key]
		if !ok {
			ref = cellReference(rt)
			refs[key] = ref
		}
		if err := sameStates(rt.S, ref, tol); err != nil {
			r.check(fmt.Errorf("paper-fig %s/%s/%s: %w", s.Dataset, s.Algo, s.Scheme, err))
		}
		if got := rt.M.Time(); got != cycles[i] {
			r.check(fmt.Errorf("paper-fig %s/%s/%s: %v cycles, the timed runs took %v", s.Dataset, s.Algo, s.Scheme, got, cycles[i]))
		}
	}
}

// cellReference computes a cell's expected final states on its
// post-batch graph without any of the program's algorithm code.
func cellReference(rt *engine.Runtime) []float64 {
	edges := rt.G.EdgeList()
	switch a := rt.Algo.(type) {
	case *algo.SSSP:
		return dijkstra(rt.G.NumVertices, edges, a.Root)
	case *algo.PageRank:
		return pageRank(rt.G.NumVertices, edges, a.Damp)
	}
	panic(fmt.Sprintf("perfbench: no reference for %s", rt.Algo.Name()))
}

func runPaperFig(o options) (*run, error) {
	specs := paperSpecs(o.seed)
	if err := prepareAll(specs); err != nil {
		return nil, err
	}
	setup := cpuTime()

	r := newRun()
	cycles := make([]float64, len(specs))
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		st := paperRounds(r, specs, cycles, dur, nil)
		// The peak so far is the harness's: the checks below hold
		// references the timed cells never needed.
		r.commonMetrics(setup)
		verifyCells(r, specs, cycles)
		// A cell's typical time is its median over the rounds; the
		// quantiles are taken over the 12 cells' typical times.
		typical := make([]time.Duration, len(st.cell))
		for i, ds := range st.cell {
			typical[i] = durQuantile(ds, 0.5)
		}
		r.set("updates_per_s", "updates/s", quantile(st.hRate, 0.5))
		r.set("batch_p50_us", "us", usOf(durQuantile(typical, 0.50)))
		r.set("batch_p99_us", "us", usOf(durQuantile(typical, 0.99)))
		r.set("query_p50_us", "us", usOf(durQuantile(st.query, 0.50)))
		r.set("harness_s", "s", durQuantile(st.rounds, 0.50).Seconds())
		return r, nil
	}
	tr := newTracer()
	st := paperRounds(r, specs, cycles, dur, tr)
	verifyCells(r, specs, cycles)
	r.overhead(durQuantile(st.rounds, 0.5), durQuantile(st.traced, 0.5))
	if err := allLadders(r, o, tr); err != nil {
		return nil, err
	}
	writeTrace(tr, "paper-fig", o)
	return r, nil
}

// paperLadder times the harness's layers from a cold prepare cache:
// bench.Prepare for the whole cell set, then one pass of bench.Run
// cells with their wall times summed by scheme.
func paperLadder(r *run, o options, tr *tracer) error {
	specs := paperSpecs(o.seed)
	bench.ClearCache()
	sp := tr.begin("bench.Prepare", 0, -1)
	p0 := cpuTime()
	if err := prepareAll(specs); err != nil {
		return err
	}
	r.set("bench.prepare_s", "s", (cpuTime() - p0).Seconds())
	tr.end(sp)
	walls := make(map[string]time.Duration)
	for i, s := range specs {
		sp := tr.begin("bench.Run", int64(i+1), -1)
		c0 := time.Now()
		_, err := bench.Run(s)
		walls[s.Scheme] += time.Since(c0)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	r.set("engine.ligra_o_s", "s", walls["Ligra-o"].Seconds())
	r.set("core.tdgraph_s_s", "s", walls["TDGraph-S"].Seconds())
	r.set("core.tdgraph_h_s", "s", walls["TDGraph-H"].Seconds())
	fmt.Fprintf(os.Stderr, "perfbench: paper ladder: %d cells\n", len(specs))
	return nil
}
