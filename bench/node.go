package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archivedb"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stream"
)

// node is one in-process granula-serve: durable archivedb (fsync on,
// commit window 0), store, executor, and the HTTP server on a real
// loopback listener. The wiring mirrors cmd/granula-serve's run().
type node struct {
	dir     string
	url     string
	db      *archivedb.DB
	store   *service.Store
	exec    *service.Executor
	httpSrv *http.Server
	heal    []func() // stop the detector, drainer and anti-entropy of a cluster shard
}

// nodeConfig sizes a node. shardID, cluster and ln are set only for
// cluster shards.
type nodeConfig struct {
	workers int
	queue   int
	shardID string
	cluster *shard.Map
	ln      net.Listener
}

// openStore opens the durable store on dir the way a starting server
// does, timing the two halves of a cold start separately.
func openStore(dir string, m *service.Metrics) (db *archivedb.DB, st *service.Store, dbOpen, storeOpen time.Duration, err error) {
	t0 := time.Now()
	db, err = archivedb.Open(dir, archivedb.Options{}) // NoSync=false, GroupCommitWindow=0
	if err != nil {
		return nil, nil, 0, 0, err
	}
	dbOpen = time.Since(t0)
	t1 := time.Now()
	st, err = service.NewStoreWithOptions(db, service.StoreOptions{Metrics: m})
	if err != nil {
		db.Close()
		return nil, nil, 0, 0, err
	}
	return db, st, dbOpen, time.Since(t1), nil
}

func startNode(dir string, cfg nodeConfig) (*node, error) {
	metrics := service.NewMetrics()
	db, store, _, _, err := openStore(dir, metrics)
	if err != nil {
		return nil, err
	}
	return serveStore(dir, db, store, metrics, cfg)
}

// serveStore puts an executor and HTTP server on an already open store.
func serveStore(dir string, db *archivedb.DB, store *service.Store, metrics *service.Metrics, cfg nodeConfig) (*node, error) {
	n := &node{dir: dir, db: db, store: store}
	streams := stream.NewManager(stream.Config{})
	execOpts := service.ExecutorOptions{Streams: streams}
	srvOpts := service.ServerOptions{Streams: streams}
	if cfg.cluster != nil {
		heal := shard.NewSelfHealMetrics()
		det := shard.NewDetector(cfg.cluster, cfg.shardID, shard.DetectorOptions{Metrics: heal})
		heal.SetDetector(det)
		heal.SetHintGauge(store.HintCount)
		rep, err := shard.NewReplicator(cfg.shardID, cfg.cluster, shard.ReplicatorOptions{
			Hints: store, Detector: det, SelfHeal: heal,
		})
		if err != nil {
			n.stop()
			return nil, err
		}
		execOpts.Replicator = rep
		srvOpts.ShardID = cfg.shardID
		srvOpts.Cluster = cfg.cluster
		srvOpts.ExtraMetrics = func(w io.Writer) {
			rep.Metrics().WritePrometheus(w)
			heal.WritePrometheus(w)
		}
		drainer := shard.NewDrainer(cfg.cluster, store, shard.DrainerOptions{Detector: det, Metrics: heal})
		ae, err := shard.NewAntiEntropy(cfg.shardID, cfg.cluster, store, shard.AntiEntropyOptions{Detector: det, Metrics: heal})
		if err != nil {
			n.stop()
			return nil, err
		}
		det.Start()
		drainer.Start()
		ae.Start()
		n.heal = []func(){det.Close, drainer.Close, ae.Close}
	}
	n.exec = service.NewExecutorWith(cfg.workers, cfg.queue, store, metrics, execOpts)
	srv := service.NewServerWith(n.exec, store, metrics, srvOpts)
	ln := cfg.ln
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			n.stop()
			return nil, err
		}
	}
	n.url = "http://" + ln.Addr().String()
	n.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go n.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return n, nil
}

// stop shuts the node down in dependency order and waits for each
// part; in-flight jobs get a short drain.
func (n *node) stop() {
	if n.httpSrv != nil {
		n.httpSrv.Close()
	}
	for _, stop := range n.heal {
		stop()
	}
	if n.exec != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.exec.Shutdown(ctx) //nolint:errcheck // a drain timeout only abandons benchmark jobs
		cancel()
	}
	if n.store != nil {
		n.store.Close()
	}
	if n.db != nil {
		n.db.Close()
	}
}

// cluster is the cluster-rw topology: three durable shards behind one
// shard.Router, all in-process on loopback.
type cluster struct {
	shards []*node
	m      *shard.Map
	router *shard.Router
	det    *shard.Detector
	http   *http.Server
	url    string
}

func startCluster(baseDir string, shards, replication, quorum int) (*cluster, error) {
	// The shard map names every shard's address, so all listeners are
	// opened before the first shard starts. A listener is its shard's
	// once the shard serves on it; fail closes those not yet handed over.
	lns := make([]net.Listener, 0, shards)
	nodes := make([]shard.Node, 0, shards)
	c := &cluster{}
	fail := func(err error) (*cluster, error) {
		for _, ln := range lns[len(c.shards):] {
			ln.Close()
		}
		c.stop()
		return nil, err
	}
	for i := 0; i < shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns = append(lns, ln)
		nodes = append(nodes, shard.Node{ID: fmt.Sprintf("s%d", i+1), URL: "http://" + ln.Addr().String()})
	}
	m, err := shard.NewMap(1, nodes, replication, quorum, 0)
	if err != nil {
		return fail(err)
	}
	c.m = m
	for i, nd := range nodes {
		dir := filepath.Join(baseDir, nd.ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
		n, err := startNode(dir, nodeConfig{workers: 1, queue: 64, shardID: nd.ID, cluster: m, ln: lns[i]})
		if err != nil {
			return fail(err)
		}
		c.shards = append(c.shards, n)
	}
	c.det = shard.NewDetector(m, "", shard.DetectorOptions{})
	c.det.Start()
	c.router = shard.NewRouter(m, shard.RouterOptions{RepairEvery: 16, Detector: c.det})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	c.url = "http://" + ln.Addr().String()
	c.http = &http.Server{Handler: c.router.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go c.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return c, nil
}

func (c *cluster) stop() {
	if c.http != nil {
		c.http.Close()
	}
	if c.det != nil {
		c.det.Close()
	}
	if c.router != nil {
		c.router.WaitRepairs()
	}
	for _, n := range c.shards {
		n.stop()
	}
}

// dirBytes sums the regular files under dir (WAL segments, snapshot and
// the cols/ sidecar).
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
