package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// allLadders measures every layer of the three workloads, each on its
// own fresh state, so a traced run of any workload reports every
// per-layer metric.
func allLadders(r *run, o options, tr *tracer) error {
	if err := applyLadder(r, o, tr); err != nil {
		return fmt.Errorf("apply ladder: %w", err)
	}
	if err := clusterLadder(r, o, tr); err != nil {
		return fmt.Errorf("ingest ladder: %w", err)
	}
	if err := paperLadder(r, o, tr); err != nil {
		return fmt.Errorf("paper ladder: %w", err)
	}
	return nil
}

// timedReplicator times every Primary.Replicate call the pipeline makes;
// the embedded Primary keeps answering the pipeline's other interfaces
// (retention advice, deadlines, Close).
type timedReplicator struct {
	*replica.Primary
	tr  *tracer
	lat []time.Duration
}

func (t *timedReplicator) Replicate(seq uint64, batch []graph.Update) error {
	sp := t.tr.begin("replica.Primary.Replicate", int64(seq), -1)
	s := time.Now()
	err := t.Primary.Replicate(seq, batch)
	t.lat = append(t.lat, time.Since(s))
	t.tr.end(sp)
	return err
}

// clusterLadder replays one fixed stream of small batches through the
// ingest path's layers on fresh state:
//
//   - a solo serve.Pipeline with fsync per batch, timing Ingest, and
//     Checkpoint called every 16 batches;
//   - a serve.Pipeline whose Replicator is a replica.Primary with two
//     followers on loopback TCP (quorum 2 of 3), timing Replicate, with
//     each member's WAL filesystem and the primary's connections
//     wrapped to time fsyncs and count bytes;
//   - three replica.Node members configured as tdgraph-serve -role auto
//     configures them, fed by one replica.Client (see nodeClientRung).
func clusterLadder(r *run, o options, tr *tracer) error {
	edges, nv, err := clusterGraph(o.seed)
	if err != nil {
		return err
	}
	g := &streamGen{rng: rand.New(rand.NewSource(o.seed + 4)), m: newMirror(nv, edges)}
	stream := make([][]graph.Update, clusterLadderBatches)
	for i := range stream {
		stream[i] = g.batch(clusterBatch, clusterAddFrac)
	}
	root, err := os.MkdirTemp("", "perfbench-ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	var on atomic.Bool
	var parent atomic.Int64
	on.Store(true)
	parent.Store(-1)
	newFS := func(name string) *timingFS {
		return &timingFS{FS: wal.OSFS{}, name: name, tr: tr, on: &on, parent: &parent}
	}

	// Rung 1: solo pipeline.
	dir := filepath.Join(root, "solo")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := memberPipeline(dir, edges, nv, newFS("wal.fsync.solo"))
	cfg.CheckpointEvery = -1
	pipe, err := serve.NewPipeline(cfg)
	if err != nil {
		return err
	}
	var ingest, ckpt []time.Duration
	for i, b := range stream {
		sp := tr.begin("serve.Pipeline.Ingest", int64(i+1), -1)
		s := time.Now()
		err := pipe.Ingest(b)
		ingest = append(ingest, time.Since(s))
		tr.end(sp)
		if err != nil {
			pipe.Close()
			return fmt.Errorf("solo ingest %d: %w", i+1, err)
		}
		if (i+1)%16 == 0 {
			sp := tr.begin("serve.Pipeline.Checkpoint", int64(i+1), -1)
			s := time.Now()
			err := pipe.Checkpoint()
			ckpt = append(ckpt, time.Since(s))
			tr.end(sp)
			if err != nil {
				pipe.Close()
				return fmt.Errorf("solo checkpoint: %w", err)
			}
		}
	}
	sess := pipe.Session()
	r.check(checkSSSP("ladder solo pipeline", sess.States(), sess.NumEdges(), g.m))
	if err := pipe.Close(); err != nil {
		return err
	}
	r.set("serve.ingest_us_per_batch", "us", usOf(durQuantile(ingest, 0.5)))
	r.set("serve.checkpoint_ms", "ms", float64(durQuantile(ckpt, 0.5))/float64(time.Millisecond))

	// Rung 2: primary plus two followers.
	leaderFS := newFS("wal.fsync.leader")
	followerFS := []*timingFS{newFS("wal.fsync.follower"), newFS("wal.fsync.follower")}
	var wire atomic.Int64
	var served sync.WaitGroup
	var followers []*replica.Follower
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		served.Wait()
		for _, f := range followers {
			f.Close()
		}
	}()
	for i, fs := range followerFS {
		fdir := filepath.Join(root, fmt.Sprintf("f%d", i))
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			return err
		}
		f, err := replica.NewFollower(replica.FollowerConfig{Pipeline: memberPipeline(fdir, edges, nv, fs)})
		if err != nil {
			return err
		}
		followers = append(followers, f)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		conn, err := dialTCP(ln.Addr().String())
		if err != nil {
			ln.Close()
			return err
		}
		fconn, err := ln.Accept()
		ln.Close()
		if err != nil {
			conn.Close()
			return err
		}
		conns = append(conns, conn, fconn)
		served.Add(1)
		go func() {
			defer served.Done()
			f.Serve(fconn)
		}()
	}
	pdir := filepath.Join(root, "primary")
	if err := os.MkdirAll(pdir, 0o755); err != nil {
		return err
	}
	pcfg := memberPipeline(pdir, edges, nv, leaderFS)
	if _, err := replica.ClaimTerm(pcfg.WAL, 1); err != nil {
		return err
	}
	prim := replica.NewPrimary(replica.PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL, Collector: pcfg.Collector})
	for i := range followers {
		if err := prim.AddFollower(&countingConn{Conn: conns[2*i], n: &wire}); err != nil {
			prim.Close()
			return err
		}
	}
	rep := &timedReplicator{Primary: prim, tr: tr}
	pcfg.Replicator = rep
	ppipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		prim.Close()
		return err
	}
	wire0 := wire.Load()
	lsync0, lns0, lbytes0 := leaderFS.syncs.Load(), leaderFS.syncNs.Load(), leaderFS.bytes.Load()
	var fns0 int64
	for _, fs := range followerFS {
		fns0 += fs.syncNs.Load()
	}
	for i, b := range stream {
		sp := tr.begin("serve.Pipeline.Ingest+replicate", int64(i+1), -1)
		parent.Store(int64(sp))
		err := ppipe.Ingest(b)
		parent.Store(-1)
		tr.end(sp)
		if err != nil {
			ppipe.Close()
			return fmt.Errorf("replicated ingest %d: %w", i+1, err)
		}
	}
	k := float64(len(stream))
	var fns int64
	for _, fs := range followerFS {
		fns += fs.syncNs.Load()
	}
	r.set("replica.replicate_us_per_batch", "us", usOf(durQuantile(rep.lat, 0.5)))
	r.set("replica.wire_bytes_per_batch", "B", float64(wire.Load()-wire0)/k)
	r.set("wal.fsync_us_per_batch.leader", "us", float64(leaderFS.syncNs.Load()-lns0)/1e3/k)
	r.set("wal.fsync_us_per_batch.follower", "us", float64(fns-fns0)/1e3/k/float64(len(followerFS)))
	r.set("wal.fsyncs_per_batch", "count", float64(leaderFS.syncs.Load()-lsync0)/k)
	r.set("wal.bytes_per_batch", "B", float64(leaderFS.bytes.Load()-lbytes0)/k)

	sess = ppipe.Session()
	r.check(checkSSSP("ladder primary pipeline", sess.States(), sess.NumEdges(), g.m))
	if err := ppipe.Close(); err != nil {
		return err
	}
	prim.Close()
	for _, c := range conns {
		c.Close()
	}
	served.Wait()
	var errs []error
	for i, f := range followers {
		if f.Seq() != uint64(len(stream)) {
			errs = append(errs, fmt.Errorf("ladder follower %d at seq %d, %d batches replicated", i, f.Seq(), len(stream)))
			continue
		}
		s := f.Pipeline().Session()
		errs = append(errs, checkSSSP(fmt.Sprintf("ladder follower %d", i), s.States(), s.NumEdges(), g.m))
	}
	r.check(errors.Join(errs...))
	if err := nodeClientRung(r, o, tr, root, edges, nv, stream, g.m); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: ingest ladder: %d batches of %d updates per rung\n", len(stream), clusterBatch)
	return nil
}

// nodeClientRung is the ingest ladder's top rung: three replica.Node
// members on loopback TCP elect a leader, and one replica.Client submits
// the whole stream through Client.Run in a closed loop (the client's
// single-writer contract allows one batch in flight). Client.Run takes
// the whole stream, so the rung reports its mean time per batch from
// submit to quorum ack, one dial and hello included. Afterwards the
// client's acked count, every member's Seq and the leader's WAL append
// count must agree, and every member's states must equal Dijkstra over
// the mirror.
func nodeClientRung(r *run, o options, tr *tracer, root string, edges []graph.Edge, nv int, stream [][]graph.Update, want *mirror) error {
	sp := tr.begin("replica.Node.elect", 0, -1)
	e0 := time.Now()
	c, err := startCluster(filepath.Join(root, "nodes"), edges, nv)
	elect := time.Since(e0)
	tr.end(sp)
	if err != nil {
		return err
	}
	addrs := make([]string, len(c.members))
	for i, m := range c.members {
		addrs[i] = m.addr
	}
	cl, err := replica.NewClient(replica.ClientConfig{Nodes: addrs, Seed: o.seed, Dial: dialTCP})
	if err != nil {
		c.stop()
		return err
	}
	sp = tr.begin("replica.Client.Run", 0, -1)
	s := time.Now()
	runErr := cl.Run(context.Background(), stream)
	d := time.Since(s)
	tr.end(sp)
	n := uint64(len(stream))
	var errs []error
	if runErr != nil {
		errs = append(errs, fmt.Errorf("ladder client: %w", runErr))
	}
	if cl.Acked() != n {
		errs = append(errs, fmt.Errorf("ladder client: %d of %d batches acked", cl.Acked(), n))
	}
	// Followers may trail the leader's ack by one append.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		behind := false
		for _, m := range c.members {
			behind = behind || m.node.Follower().Seq() != n
		}
		if !behind {
			break
		}
	}
	appends := c.members[c.leader].node.Follower().Pipeline().Collector().Get(stats.CtrWALAppends)
	if appends != n {
		errs = append(errs, fmt.Errorf("ladder nodes: leader appended %d WAL records, client sent %d batches", appends, n))
	}
	if err := c.stop(); err != nil {
		return err
	}
	for _, m := range c.members {
		f := m.node.Follower()
		if f.Seq() != n {
			errs = append(errs, fmt.Errorf("ladder node %s at seq %d, client sent %d batches", m.addr, f.Seq(), n))
			continue
		}
		s := f.Pipeline().Session()
		errs = append(errs, checkSSSP("ladder node "+m.addr, s.States(), s.NumEdges(), want))
	}
	r.check(errors.Join(errs...))
	r.set("replica.elect_ms", "ms", float64(elect)/float64(time.Millisecond))
	r.set("replica.client_us_per_batch", "us", usOf(d)/float64(n))
	return nil
}
