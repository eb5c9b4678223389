// Command granula-router fronts a sharded granula-serve cluster: a
// stateless HTTP router that consistent-hashes job IDs onto the shard
// map, proxies each request to the job's replica set, and serves the
// public API with the exact bytes a single-node granula-serve would —
// clients cannot tell the difference except for the X-Granula-Shard
// response header and the extra /cluster visibility.
//
// Submits go to the job's primary (failing over down the replica set),
// job reads rotate across replicas, and replicas that miss a record or
// diverge from the served ETag are repaired in the background from the
// newest copy.
// Because the router keeps no per-job state, any number of router
// instances can front the same shards behind one load balancer.
//
// The shard map comes from -shards, the same id=url list every shard
// gets as -peers, with the same -replication/-quorum settings: router
// and shards build one ring from one input.
//
// Router-specific endpoints:
//
//	GET /cluster   the map plus live per-shard health
//	GET /healthz   aggregate cluster liveness (ok | degraded | down)
//	GET /metrics   granula_router_* counters (Prometheus text format)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/shard"
)

// shutdownGrace is how long in-flight proxied requests get to finish
// after SIGINT/SIGTERM. The router holds no state worth a longer wait;
// whatever is still open then — an SSE pass-through — is cut.
const shutdownGrace = 5 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// routerConfig is the parsed command line.
type routerConfig struct {
	addr        string
	shards      string
	replication int
	quorum      int
	mapVersion  uint64
	repairEvery int
	retryBudget int
	probeEvery  time.Duration
}

// parseFlags parses args into a routerConfig without touching globals,
// so tests can drive every mode.
func parseFlags(args []string, stderr io.Writer) (*routerConfig, error) {
	fs := flag.NewFlagSet("granula-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &routerConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.shards, "shards", "", `shard map as "id=url,id=url,..."`)
	fs.IntVar(&cfg.replication, "replication", 0, "replicas per job incl. the primary (0 = all shards); must match the shards' setting")
	fs.IntVar(&cfg.quorum, "quorum", 0, "write-quorum acks per job (0 = majority); must match the shards' setting")
	fs.Uint64Var(&cfg.mapVersion, "map-version", 1, "shard-map version")
	fs.IntVar(&cfg.repairEvery, "repair-every", 16, "probe replica divergence on every Nth successful job read (0 = disable probing)")
	fs.IntVar(&cfg.retryBudget, "retry-budget", 0, "failover retries per routed request after the first attempt (0 = default of 3, -1 = unlimited)")
	fs.DurationVar(&cfg.probeEvery, "heartbeat-interval", 0, "failure-detector probe period (0 = 500ms)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.shards == "" {
		fmt.Fprintf(stderr, "granula-router: -shards is required\n")
		return nil, fmt.Errorf("bad shard map flags")
	}
	if cfg.repairEvery < 0 {
		fmt.Fprintf(stderr, "granula-router: -repair-every must be >= 0\n")
		return nil, fmt.Errorf("bad repair interval")
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "granula-router: unexpected arguments: %v\n", fs.Args())
		return nil, fmt.Errorf("unexpected arguments")
	}
	return cfg, nil
}

// loadMap builds the shard map from -shards, as granula-serve builds
// its own from -peers.
func loadMap(cfg *routerConfig) (*shard.Map, error) {
	nodes, err := shard.ParseNodes(cfg.shards)
	if err != nil {
		return nil, err
	}
	return shard.NewMap(cfg.mapVersion, nodes, cfg.replication, cfg.quorum, 0)
}

// run is the testable entry point: it serves until ctx is canceled
// (SIGINT/SIGTERM in main) and returns the process exit code. It binds
// before announcing, so the printed address is the real one even for
// -addr host:0.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	m, err := loadMap(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "granula-router: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintf(stderr, "granula-router: %v\n", err)
		return 1
	}
	// Self "" — the router is not in the map and probes every shard.
	det := shard.NewDetector(m, "", shard.DetectorOptions{Interval: cfg.probeEvery})
	det.Start()
	defer det.Close()
	rt := shard.NewRouter(m, shard.RouterOptions{
		RepairEvery: cfg.repairEvery,
		RetryBudget: cfg.retryBudget,
		Detector:    det,
	})
	defer rt.WaitRepairs()

	httpSrv := &http.Server{
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "granula-router: listening on %s for %d shards (map v%d, R=%d, W=%d)\n",
		ln.Addr(), len(m.Shards), m.Version, m.Replication, m.WriteQuorum)
	select {
	case err := <-served:
		fmt.Fprintf(stderr, "granula-router: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "granula-router: shutting down...")
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(grace); err != nil {
		httpSrv.Close()
	}
	<-served
	return 0
}
