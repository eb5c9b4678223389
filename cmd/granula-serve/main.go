// Command granula-serve runs the Granula performance-archive service: a
// long-running HTTP server whose bounded executor pool runs (platform,
// algorithm, graph) simulations concurrently and publishes the analyzed
// archives to an indexed store.
//
// The store is always backed by the archivedb storage engine: a
// CRC32-framed write-ahead log with segment rotation, index snapshots,
// and background compaction. With -data-dir every archive acked as
// "done" is durable — restarting against the same directory serves
// byte-identical /archive and /query responses. Without it the database
// lives in a temporary directory, written without fsync and removed at
// exit, so a restart starts empty; a killed process leaves the
// directory behind in $TMPDIR.
//
// API (all JSON unless noted):
//
//	POST   /jobs                  submit a job          → 202 {"id","status"}
//	GET    /jobs                  list every job state
//	GET    /jobs/{id}             status + summary
//	DELETE /jobs/{id}             cancel a queued job
//	GET    /jobs/{id}/archive     the job's performance archive
//	GET    /jobs/{id}/query       ?q= (query language) or ?mission= / ?actor= / ?path= (indexed)
//	GET    /jobs/{id}/viz/{kind}  breakdown|cpu|gantt (SVG), tree (text), report (HTML)
//	POST   /diff                  regression verdicts between two stored jobs
//	POST   /ingest/{id}           append a batch of live events (JSON lines) for an external job
//	GET    /watch/{id}            SSE tail of a live job (Last-Event-ID resume, ?window= aggregation)
//	GET    /healthz               liveness + coarse load
//	GET    /metrics               Prometheus text format (incl. storage gauges)
//
// Live streaming: jobs running outside the server push their platform
// -log events through POST /ingest/{id} while they run (sequenced,
// idempotent, durable before each ack); in-process jobs stream their
// own supersteps automatically. Either way GET /watch/{id} tails the
// job over SSE and /jobs/{id}/query answers over the partial archive.
// When the stream seals, the assembled archive is byte-identical to a
// batch run over the same records. See the README's "Live jobs:
// /watch and /ingest" section.
//
// Throughput, latency and storage figures come from the repository
// benchmark, which drives this service code over loopback HTTP, e.g.
// `sh bench/run.sh --workload serve-write` (see bench/README.md).
//
// With -chaos SPEC a deterministic, seedable fault injector is armed
// across the stack (storage appends/reads, the executor run path, and
// the HTTP handlers), e.g. -chaos "rate=0.05,seed=7,kinds=error+torn";
// see internal/faults for the spec grammar.
//
// With -shard-id and -peers the process joins a replicated cluster
// fronted by cmd/granula-router: each finished job is pushed to its
// replica set and acked done only after -quorum shards hold it, and the
// cluster-internal /internal/replicate, /internal/export/{id}, and
// /cluster endpoints come up. See internal/shard and the README's
// "A cluster: shards behind granula-router" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archivedb"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/stream"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// serveConfig is the parsed command line.
type serveConfig struct {
	addr         string
	workers      int
	queueCap     int
	dataDir      string
	noSync       bool
	drain        time.Duration
	jobTimeout   time.Duration
	chaos        string
	parallelism  int
	commitWindow time.Duration
	pprofAddr    string
	shardID      string
	peers        string
	replication  int
	quorum       int
	mapVersion   uint64
	maxLiveJobs  int
	heartbeat    time.Duration
	probeEvery   time.Duration
	hintDrain    time.Duration
	antiEntropy  time.Duration
	selfHeal     bool
}

// parseFlags parses args into a serveConfig without touching globals,
// so tests can drive it.
func parseFlags(args []string, stderr io.Writer) (*serveConfig, error) {
	fs := flag.NewFlagSet("granula-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &serveConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 4, "executor pool size")
	fs.IntVar(&cfg.queueCap, "queue", 64, "bounded job-queue capacity")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "durable archive directory (empty = a temporary directory, written without fsync and removed at exit)")
	fs.BoolVar(&cfg.noSync, "no-sync", false, "skip fsync per archive write (faster; a machine crash may lose acked jobs)")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-shutdown drain budget")
	fs.DurationVar(&cfg.jobTimeout, "job-timeout", 0, "default per-job deadline applied when a submit carries none (0 = unlimited)")
	fs.StringVar(&cfg.chaos, "chaos", "", `fault-injection spec, e.g. "rate=0.1,seed=7,kinds=error+latency+torn" (see internal/faults)`)
	fs.IntVar(&cfg.parallelism, "parallelism", 0, "per-job engine host parallelism; results are identical for every value (0 = NumCPU divided across the worker pool)")
	fs.DurationVar(&cfg.commitWindow, "commit-window", 0, "WAL group-commit window: how long the committer waits for concurrent writers to share one fsync (0 = batch only naturally-concurrent writes, no added latency)")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this extra loopback address, e.g. 127.0.0.1:6060 (empty = disabled; never expose publicly)")
	fs.StringVar(&cfg.shardID, "shard-id", "", "cluster: this node's shard ID (requires -peers)")
	fs.StringVar(&cfg.peers, "peers", "", `cluster: full shard map as "id=url,id=url,..." including this node; empty = single-node`)
	fs.IntVar(&cfg.replication, "replication", 0, "cluster: replicas per job incl. the primary (0 = all shards)")
	fs.IntVar(&cfg.quorum, "quorum", 0, "cluster: write-quorum acks before a job is done (0 = majority of the replica set)")
	fs.Uint64Var(&cfg.mapVersion, "map-version", 1, "cluster: shard-map version echoed on /cluster and /healthz")
	fs.IntVar(&cfg.maxLiveJobs, "max-live-jobs", 0, "bound on concurrently streaming jobs before /ingest sheds with 429 (0 = 256)")
	fs.DurationVar(&cfg.heartbeat, "watch-heartbeat", 0, "idle /watch connections get an SSE comment at this period (0 = 15s)")
	fs.BoolVar(&cfg.selfHeal, "self-heal", true, "cluster: enable the failure detector, hinted handoff, and anti-entropy (requires -peers; -self-heal=false keeps strict quorum semantics)")
	fs.DurationVar(&cfg.probeEvery, "heartbeat-interval", 0, "cluster: failure-detector probe period (0 = 500ms)")
	fs.DurationVar(&cfg.hintDrain, "hint-drain", 0, "cluster: hinted-handoff drain period (0 = 1s)")
	fs.DurationVar(&cfg.antiEntropy, "anti-entropy", 0, "cluster: replica digest-exchange period (0 = 5s)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (cfg.shardID == "") != (cfg.peers == "") {
		fmt.Fprintf(stderr, "granula-serve: -shard-id and -peers must be set together\n")
		return nil, fmt.Errorf("bad cluster flags")
	}
	if cfg.commitWindow < 0 {
		fmt.Fprintf(stderr, "granula-serve: -commit-window must be >= 0\n")
		return nil, fmt.Errorf("bad commit window")
	}
	if cfg.chaos != "" {
		if _, err := faults.Parse(cfg.chaos); err != nil {
			fmt.Fprintf(stderr, "granula-serve: -chaos: %v\n", err)
			return nil, err
		}
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "granula-serve: unexpected arguments: %v\n", fs.Args())
		return nil, fmt.Errorf("unexpected arguments")
	}
	return cfg, nil
}

// run is the testable entry point: it serves until ctx is canceled,
// drains, and returns the process exit code.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}

	var inj *faults.Injector
	if cfg.chaos != "" {
		inj, _ = faults.Parse(cfg.chaos) // validated by parseFlags
		fmt.Fprintf(stderr, "granula-serve: chaos mode: %s\n", inj.Describe())
	}

	if cfg.pprofAddr != "" {
		stop, err := servePprof(cfg.pprofAddr, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "granula-serve: pprof: %v\n", err)
			return 1
		}
		defer stop()
	}

	dir, temp := cfg.dataDir, cfg.dataDir == ""
	if temp {
		if dir, err = os.MkdirTemp("", "granula-serve-"); err != nil {
			fmt.Fprintf(stderr, "granula-serve: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
	}
	dbOpts := archivedb.Options{NoSync: cfg.noSync || temp, GroupCommitWindow: cfg.commitWindow}
	if inj != nil {
		dbOpts.Injector = inj
	}
	db, err := archivedb.Open(dir, dbOpts)
	if err != nil {
		fmt.Fprintf(stderr, "granula-serve: %v\n", err)
		return 1
	}
	defer db.Close()
	metrics := service.NewMetrics()
	store, err := service.NewStoreWithOptions(db, service.StoreOptions{Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "granula-serve: %v\n", err)
		return 1
	}
	defer store.Close()
	if temp {
		fmt.Fprintf(stderr, "granula-serve: no -data-dir: temporary data dir %s, removed at exit\n", dir)
	} else {
		fmt.Fprintf(stderr, "granula-serve: data dir %s (%d archived jobs restored)\n", dir, store.Len())
	}
	// One stream manager shared by the executor (in-process jobs mirror
	// their supersteps into it) and the server (/ingest and /watch).
	streams := stream.NewManager(stream.Config{MaxLiveJobs: cfg.maxLiveJobs})
	execOpts := service.ExecutorOptions{
		Faults:          inj,
		DefaultTimeout:  cfg.jobTimeout,
		HostParallelism: cfg.parallelism,
		Streams:         streams,
	}
	srvOpts := service.ServerOptions{
		Faults:         inj,
		Streams:        streams,
		WatchHeartbeat: cfg.heartbeat,
	}
	if cfg.peers != "" {
		nodes, err := shard.ParseNodes(cfg.peers)
		if err != nil {
			fmt.Fprintf(stderr, "granula-serve: -peers: %v\n", err)
			return 2
		}
		clusterMap, err := shard.NewMap(cfg.mapVersion, nodes, cfg.replication, cfg.quorum, 0)
		if err != nil {
			fmt.Fprintf(stderr, "granula-serve: %v\n", err)
			return 2
		}
		repOpts := shard.ReplicatorOptions{}
		var selfheal *shard.SelfHealMetrics
		var det *shard.Detector
		if cfg.selfHeal {
			// The self-healing stack: the detector feeds the replicator
			// (skip pushes to known corpses) and gates the drainer and
			// anti-entropy sweep; the store is the durable hint journal.
			selfheal = shard.NewSelfHealMetrics()
			det = shard.NewDetector(clusterMap, cfg.shardID, shard.DetectorOptions{
				Interval: cfg.probeEvery,
				Metrics:  selfheal,
			})
			selfheal.SetDetector(det)
			selfheal.SetHintGauge(store.HintCount)
			repOpts.Hints = store
			repOpts.Detector = det
			repOpts.SelfHeal = selfheal
		}
		rep, err := shard.NewReplicator(cfg.shardID, clusterMap, repOpts)
		if err != nil {
			fmt.Fprintf(stderr, "granula-serve: %v\n", err)
			return 2
		}
		execOpts.Replicator = rep
		srvOpts.ShardID = cfg.shardID
		srvOpts.Cluster = clusterMap
		if cfg.selfHeal {
			srvOpts.ExtraMetrics = func(w io.Writer) {
				rep.Metrics().WritePrometheus(w)
				selfheal.WritePrometheus(w)
			}
			det.Start()
			defer det.Close()
			drainer := shard.NewDrainer(clusterMap, store, shard.DrainerOptions{
				Interval: cfg.hintDrain, Detector: det, Metrics: selfheal,
			})
			drainer.Start()
			defer drainer.Close()
			ae, err := shard.NewAntiEntropy(cfg.shardID, clusterMap, store, shard.AntiEntropyOptions{
				Interval: cfg.antiEntropy, Detector: det, Metrics: selfheal,
			})
			if err != nil {
				fmt.Fprintf(stderr, "granula-serve: %v\n", err)
				return 2
			}
			ae.Start()
			defer ae.Close()
		} else {
			srvOpts.ExtraMetrics = rep.Metrics().WritePrometheus
		}
		fmt.Fprintf(stderr, "granula-serve: shard %s in a %d-shard map v%d (R=%d, W=%d, self-heal %v)\n",
			cfg.shardID, len(clusterMap.Shards), clusterMap.Version,
			clusterMap.Replication, clusterMap.WriteQuorum, cfg.selfHeal)
	}
	exec := service.NewExecutorWith(cfg.workers, cfg.queueCap, store, metrics, execOpts)
	srv := service.NewServerWith(exec, store, metrics, srvOpts)

	return serve(ctx, srv, exec, cfg, stderr)
}

// servePprof starts the profiling listener on its own address with an
// explicit mux — the debug endpoints are opt-in and never share the
// public API's handler (importing net/http/pprof for its side effect
// would register them on http.DefaultServeMux, which the API does not
// use, but an explicit mux makes the isolation obvious). Returns the
// listener's shutdown func.
func servePprof(addr string, stderr io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "granula-serve: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close() }, nil
}

// newHTTPServer builds the hardened http.Server: header/read timeouts
// bound slowloris-style clients, the idle timeout reaps abandoned
// keep-alive connections. No WriteTimeout — archive and viz responses
// are large and the executor already bounds job time; per-request body
// size is capped inside the handlers instead.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serve runs the HTTP server until ctx is canceled (SIGINT/SIGTERM in
// main), then stops accepting requests and drains the executor within
// the -drain budget. It binds before announcing, so the printed address
// is the real one even for -addr host:0.
func serve(ctx context.Context, srv *service.Server, exec *service.Executor, cfg *serveConfig, stderr io.Writer) int {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "granula-serve: %v\n", err)
		return 1
	}
	httpSrv := newHTTPServer(srv.Handler())
	// Shutdown waits for open connections; live tails must not hold it.
	httpSrv.RegisterOnShutdown(srv.EndTails)
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "granula-serve: listening on %s (%d workers, queue %d)\n",
		ln.Addr(), cfg.workers, cfg.queueCap)
	select {
	case err := <-served:
		fmt.Fprintf(stderr, "granula-serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "granula-serve: shutting down, draining jobs...")
	drain, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	httpSrv.Shutdown(drain)
	<-served
	if err := exec.Shutdown(drain); err != nil {
		fmt.Fprintf(stderr, "granula-serve: drain incomplete: %v\n", err)
	}
	return 0
}
