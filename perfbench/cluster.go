package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// The ingest ladder's input: the AZ preset at the tdgraph-serve default
// scale with its generator seeded from --seed, SSSP from vertex 0, and a
// stream of clusterLadderBatches batches of clusterBatch updates, 75%
// additions.
const (
	clusterPreset        = "AZ"
	clusterScale         = 0.05
	clusterBatch         = 4
	clusterAddFrac       = 0.75
	clusterLadderBatches = 512
)

func clusterGraph(seed int64) ([]graph.Edge, int, error) {
	p, err := gen.PresetByName(clusterPreset)
	if err != nil {
		return nil, 0, err
	}
	p.Seed = seed
	edges, nv := p.Generate(clusterScale)
	return edges, nv, nil
}

// memberPipeline is one member's pipeline configuration, the way
// tdgraph-serve -role auto builds it with its defaults: fsync per
// batch, 4 MiB segments, a checkpoint every 16 batches keeping 2
// generations, the native engine, no validation.
func memberPipeline(dir string, edges []graph.Edge, nv int, fs wal.FS) serve.PipelineConfig {
	opts := tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, MaxVertices: nv}
	return serve.PipelineConfig{
		Bootstrap: func() (*tdgraph.Session, error) {
			return tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, opts)
		},
		Algorithm:       tdgraph.NewSSSP(0),
		SessionOptions:  opts,
		WAL:             wal.Options{Dir: dir, Sync: wal.SyncEachBatch, SegmentBytes: 4 << 20, FS: fs},
		CheckpointPath:  filepath.Join(dir, "ckpt.tds"),
		CheckpointKeep:  2,
		CheckpointEvery: 16,
		Collector:       stats.NewCollector(),
	}
}

func dialTCP(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }

// timingFS wraps a member's WAL filesystem: it counts bytes written and
// times every fsync, and while on is set records each fsync as a span
// under the batch in flight.
type timingFS struct {
	wal.FS
	name   string
	tr     *tracer
	on     *atomic.Bool
	parent *atomic.Int64

	syncs, syncNs, bytes atomic.Int64
}

type timingFile struct {
	wal.File
	fs *timingFS
}

func (f *timingFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) SyncDir(dir string) error {
	return f.timeSync(func() error { return f.FS.SyncDir(dir) })
}

func (f *timingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.fs.bytes.Add(int64(n))
	return n, err
}

func (f *timingFile) Sync() error { return f.fs.timeSync(f.File.Sync) }

func (f *timingFS) timeSync(sync func() error) error {
	sp := -1
	if f.on.Load() {
		sp = f.tr.begin(f.name, 0, int(f.parent.Load()))
	}
	s := time.Now()
	err := sync()
	f.syncNs.Add(int64(time.Since(s)))
	f.syncs.Add(1)
	f.tr.end(sp)
	return err
}

// countingConn counts the bytes a connection carries both ways.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}

// member is one in-process cluster node with its listener.
type member struct {
	node *replica.Node
	ln   net.Listener
	addr string
}

// cluster is three replica.Node members on loopback TCP.
type cluster struct {
	members []*member
	cancel  context.CancelFunc
	runs    sync.WaitGroup // Node.Run loops
	conns   sync.WaitGroup // accept loops and HandleConn goroutines
	leader  int
}

// startCluster recovers three members over fresh directories under
// root and waits until one leads and both others follow it.
func startCluster(root string, edges []graph.Edge, nv int) (*cluster, error) {
	c := &cluster{leader: -1}
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.members = append(c.members, &member{ln: ln, addr: ln.Addr().String()})
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i, m := range c.members {
		dir := filepath.Join(root, fmt.Sprintf("m%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			c.stop()
			return nil, err
		}
		var peers []string
		for j, o := range c.members {
			if j != i {
				peers = append(peers, o.addr)
			}
		}
		node, err := replica.NewNode(replica.NodeConfig{
			Addr: m.addr, Peers: peers, Dial: dialTCP, Pipeline: memberPipeline(dir, edges, nv, nil),
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		m.node = node
		c.conns.Add(1)
		go func(m *member) {
			defer c.conns.Done()
			for {
				conn, err := m.ln.Accept()
				if err != nil {
					return // stop closed the listener
				}
				c.conns.Add(1)
				go func() {
					defer c.conns.Done()
					m.node.HandleConn(conn)
				}()
			}
		}(m)
		c.runs.Add(1)
		go func(n *replica.Node) {
			defer c.runs.Done()
			n.Run(ctx)
		}(node)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if c.leader = c.ready(); c.leader >= 0 {
			return c, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.stop()
	return nil, errors.New("ingest ladder: no leader with two attached followers within 60s")
}

// ready returns the leader's index once one member leads and both
// others have adopted its term, else -1.
func (c *cluster) ready() int {
	for i, m := range c.members {
		if m.node.Role() != replica.RoleLeader {
			continue
		}
		term := m.node.Term()
		for j, o := range c.members {
			if j != i && (o.node.Follower().Term() != term || o.node.Follower().Leader() != m.addr) {
				return -1
			}
		}
		return i
	}
	return -1
}

// stop shuts every member down and waits for all their goroutines.
func (c *cluster) stop() error {
	if c.cancel != nil {
		c.cancel()
	}
	for _, m := range c.members {
		m.ln.Close()
	}
	c.runs.Wait()
	var first error
	for _, m := range c.members {
		if m.node != nil {
			if err := m.node.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	done := make(chan struct{})
	go func() { c.conns.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		if first == nil {
			first = errors.New("ingest ladder: connection handlers still running 30s after shutdown")
		}
	}
	return first
}
