package platforms

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/algorithms"
	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/envmon"
	"repro/internal/gas"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/pregel"
	"repro/internal/sim"
	"repro/internal/single"
	"repro/internal/trace"
	"repro/internal/yarn"
	"repro/internal/zookeeper"
)

// graphCutDefault keeps calibration.go free of a graph import cycle note.
const graphCutDefault = graph.VertexCutHash

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Spec describes one job run under the Granula pipeline.
type Spec struct {
	// Platform is "Giraph" or "PowerGraph".
	Platform string
	// Algorithm is one of BFS, SSSP, PageRank, WCC, CDLP (CDLP is
	// Pregel-only; PageRank on GAS skips dangling redistribution).
	Algorithm string
	// Source is the source vertex for traversal algorithms.
	Source graph.VertexID
	// Iterations bounds fixed-iteration algorithms (PageRank, CDLP).
	Iterations int
	// Dataset is the input graph.
	Dataset *datagen.Dataset
	// Cluster is the hardware model; zero value selects DAS5Config.
	Cluster cluster.Config
	// WorkScale scales measured work to target size; 0 selects
	// dg1000WorkScale(Dataset).
	WorkScale float64
	// JobID labels the archive job; empty derives one.
	JobID string
	// SampleInterval is the environment monitor period; 0 selects 1 s.
	SampleInterval float64
	// HostParallelism bounds the host goroutines the engines may use for
	// semantic superstep/iteration compute. It changes only wall-clock
	// speed — archives are byte-identical for every value. 0 selects
	// runtime.NumCPU(); 1 forces the serial engine. When a Pregel/GAS
	// override config sets its own HostParallelism, that wins.
	HostParallelism int
	// Pregel / GAS / Single override the calibrated platform configs
	// when non-nil.
	Pregel *pregel.Config
	GAS    *gas.Config
	Single *single.Config
	// HDFS overrides the Giraph deployment's filesystem configuration
	// when non-nil (e.g. for replication/locality ablations).
	HDFS *dfs.HDFSConfig
	// RecordSink and SampleSink, when non-nil, observe every platform-log
	// record and environment sample live as the simulation emits them
	// (see monitor.Session). They do not change the assembled archive.
	RecordSink func(trace.Record)
	SampleSink func(envmon.Sample)
}

// Output is a completed, analyzed run.
type Output struct {
	// Job is the assembled, metric-annotated archive job.
	Job *archive.Job
	// Breakdown is the domain-level decomposition (Figure 5 data).
	Breakdown core.Breakdown
	// Values is the algorithm output.
	Values []float64
	// Supersteps counts supersteps (Pregel) or iterations (GAS).
	Supersteps int
	// Runtime is the job makespan in simulated seconds.
	Runtime float64
	// ReplicationFactor is the vertex-cut replication factor
	// (PowerGraph runs only; 0 otherwise).
	ReplicationFactor float64
	// Model is the platform's performance model.
	Model *core.Model
	// ModelErrors are conformance mismatches between job and model
	// (empty on a correct run).
	ModelErrors []core.ConformanceError
}

// Run executes the spec end to end: stage input, run the platform job
// with the environment monitor attached, assemble the archive job, apply
// the standard derivation rules, and check the job against the platform's
// performance model.
func Run(spec Spec) (*Output, error) {
	return RunContext(context.Background(), spec)
}

// watchContext bridges wall-clock cancellation into the simulation: a
// watcher goroutine interrupts the engine when ctx is canceled, so a
// hung or oversized simulation is abandoned instead of holding its
// worker forever. The returned stop func releases the watcher; callers
// must invoke it before the run returns.
func watchContext(ctx context.Context, eng *sim.Engine) func() {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			eng.Interrupt()
		case <-stop:
		}
	}()
	return func() { close(stop); <-done }
}

// finishErr maps a simulation error back to the caller's context when
// the run was interrupted by cancellation, so executors can tell a
// deadline from a genuine model failure.
func finishErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("platforms: run aborted: %w", ctxErr)
	}
	return err
}

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, the simulation engine is interrupted between events,
// its processes are unwound, and the context's error is returned.
func RunContext(ctx context.Context, spec Spec) (*Output, error) {
	if spec.Dataset == nil {
		return nil, fmt.Errorf("platforms: spec needs a dataset")
	}
	if spec.WorkScale == 0 {
		spec.WorkScale = dg1000WorkScale(spec.Dataset)
	}
	if spec.Cluster.Nodes == 0 {
		spec.Cluster = DAS5Config()
	}
	if spec.SampleInterval == 0 {
		spec.SampleInterval = 1.0
	}
	if spec.Iterations == 0 {
		spec.Iterations = 10
	}
	if spec.JobID == "" {
		spec.JobID = fmt.Sprintf("%s-%s-%s", strings.ToLower(spec.Platform), strings.ToLower(spec.Algorithm), spec.Dataset.Name)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("platforms: run aborted: %w", err)
	}
	switch strings.ToLower(spec.Platform) {
	case "giraph":
		return runGiraph(ctx, spec)
	case "powergraph":
		return runPowerGraph(ctx, spec)
	case "openg":
		return runSingleNode(ctx, spec)
	default:
		return nil, fmt.Errorf("platforms: unknown platform %q", spec.Platform)
	}
}

func runGiraph(ctx context.Context, spec Spec) (*Output, error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	defer watchContext(ctx, eng)()
	c := cluster.New(eng, spec.Cluster)
	cfg := giraphPaperConfig(spec.Dataset)
	if spec.Pregel != nil {
		cfg = *spec.Pregel
	} else {
		// Fit the calibrated deployment to the requested cluster: one
		// worker per node, threads bounded by the node's cores.
		cfg.Workers = spec.Cluster.Nodes
		cfg.ComputeThreads = minInt(cfg.ComputeThreads, spec.Cluster.CoresPerNode)
		cfg.ParseThreads = minInt(cfg.ParseThreads, spec.Cluster.CoresPerNode)
	}
	cfg.WorkScale = spec.WorkScale
	if cfg.HostParallelism == 0 {
		cfg.HostParallelism = spec.HostParallelism
	}
	prog, combiner, err := pregelProgram(spec)
	if err != nil {
		return nil, err
	}
	if spec.Pregel == nil {
		cfg.Combiner = combiner
	}
	hcfg := dfs.DefaultHDFSConfig()
	if spec.HDFS != nil {
		hcfg = *spec.HDFS
	}
	h := dfs.NewHDFS(c, hcfg)
	deps := pregel.Deps{
		Cluster:    c,
		RM:         yarn.NewResourceManager(c, giraphYarnConfig()),
		HDFS:       h,
		ZK:         zookeeper.NewService(c.Node(0), giraphZKConfig()),
		InputPath:  "/input/" + spec.Dataset.Name,
		OutputPath: "/output",
	}
	if err := pregel.StageInput(h, deps.InputPath, spec.Dataset, cfg.WorkScale); err != nil {
		return nil, err
	}
	session := &monitor.Session{
		Cluster:        c,
		SampleInterval: spec.SampleInterval,
		JobID:          spec.JobID,
		Platform:       "Giraph",
		RecordSink:     spec.RecordSink,
		SampleSink:     spec.SampleSink,
	}
	var res *pregel.Result
	job, err := session.Run(func(p *sim.Proc, em *trace.Emitter) error {
		var runErr error
		res, runErr = pregel.RunJob(p, deps, cfg, prog, spec.Dataset, em)
		return runErr
	})
	if err != nil {
		return nil, finishErr(ctx, err)
	}
	return finish(spec, job, core.GiraphModel(), res.Values, res.Supersteps, res.Runtime)
}

func runPowerGraph(ctx context.Context, spec Spec) (*Output, error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	defer watchContext(ctx, eng)()
	c := cluster.New(eng, spec.Cluster)
	cfg := powerGraphPaperConfig(spec.Dataset)
	if spec.GAS != nil {
		cfg = *spec.GAS
	} else {
		cfg.Machines = spec.Cluster.Nodes
		cfg.LoadThreads = minInt(cfg.LoadThreads, spec.Cluster.CoresPerNode)
		cfg.ComputeThreads = minInt(cfg.ComputeThreads, spec.Cluster.CoresPerNode)
	}
	cfg.WorkScale = spec.WorkScale
	if cfg.HostParallelism == 0 {
		cfg.HostParallelism = spec.HostParallelism
	}
	prog, err := gasProgram(spec)
	if err != nil {
		return nil, err
	}
	store := dfs.NewSharedStore(c)
	deps := gas.Deps{
		Cluster:    c,
		Store:      store,
		MPI:        powerGraphMPIConfig(),
		InputPath:  "/data/" + spec.Dataset.Name,
		OutputPath: "/out",
	}
	if err := gas.StageInput(store, deps.InputPath, spec.Dataset, cfg.WorkScale); err != nil {
		return nil, err
	}
	session := &monitor.Session{
		Cluster:        c,
		SampleInterval: spec.SampleInterval,
		JobID:          spec.JobID,
		Platform:       "PowerGraph",
		RecordSink:     spec.RecordSink,
		SampleSink:     spec.SampleSink,
	}
	var res *gas.Result
	job, err := session.Run(func(p *sim.Proc, em *trace.Emitter) error {
		var runErr error
		res, runErr = gas.RunJob(p, deps, cfg, prog, spec.Dataset, em)
		return runErr
	})
	if err != nil {
		return nil, finishErr(ctx, err)
	}
	out, err := finish(spec, job, core.PowerGraphModel(), res.Values, res.Iterations, res.Runtime)
	if err != nil {
		return nil, err
	}
	out.ReplicationFactor = res.ReplicationFactor
	return out, nil
}

func runSingleNode(ctx context.Context, spec Spec) (*Output, error) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	defer watchContext(ctx, eng)()
	c := cluster.New(eng, spec.Cluster)
	cfg := spec.Single
	if cfg == nil {
		d := single.DefaultConfig()
		d.Threads = minInt(d.Threads, spec.Cluster.CoresPerNode)
		cfg = &d
	}
	runCfg := *cfg
	runCfg.WorkScale = spec.WorkScale
	kernel, err := singleKernel(spec)
	if err != nil {
		return nil, err
	}
	deps := single.Deps{
		Cluster:    c,
		InputBytes: single.StageInput(spec.Dataset, runCfg.WorkScale),
		OutputPath: "/local/out",
	}
	session := &monitor.Session{
		Cluster:        c,
		SampleInterval: spec.SampleInterval,
		JobID:          spec.JobID,
		Platform:       "OpenG",
		RecordSink:     spec.RecordSink,
		SampleSink:     spec.SampleSink,
	}
	var res *single.Result
	job, err := session.Run(func(p *sim.Proc, em *trace.Emitter) error {
		var runErr error
		res, runErr = single.RunJob(p, deps, runCfg, kernel, spec.Dataset, em)
		return runErr
	})
	if err != nil {
		return nil, finishErr(ctx, err)
	}
	return finish(spec, job, core.SingleNodeModel(), res.Values, res.Iterations, res.Runtime)
}

// singleKernel maps an algorithm name to its single-node kernel.
func singleKernel(spec Spec) (single.Kernel, error) {
	switch strings.ToUpper(spec.Algorithm) {
	case "BFS":
		return single.BFSKernel{Source: spec.Source}, nil
	case "SSSP":
		return single.SSSPKernel{Source: spec.Source}, nil
	case "PAGERANK", "PR":
		return single.PageRankKernel{Iterations: spec.Iterations, Damping: 0.85}, nil
	case "WCC":
		return single.WCCKernel{}, nil
	case "CDLP":
		return single.CDLPKernel{Iterations: spec.Iterations}, nil
	case "LCC":
		return single.LCCKernel{}, nil
	default:
		return nil, fmt.Errorf("platforms: unknown algorithm %q for OpenG", spec.Algorithm)
	}
}

func finish(spec Spec, job *archive.Job, model *core.Model, values []float64, steps int, runtime float64) (*Output, error) {
	metrics.StandardRules().Apply(job)
	breakdown, err := metrics.AnnotateDomainBreakdown(job)
	if err != nil {
		return nil, err
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return &Output{
		Job:         job,
		Breakdown:   breakdown,
		Values:      values,
		Supersteps:  steps,
		Runtime:     runtime,
		Model:       model,
		ModelErrors: model.CheckJob(job),
	}, nil
}

// pregelProgram maps an algorithm name to its Pregel program and natural
// combiner.
func pregelProgram(spec Spec) (pregel.Program, pregel.Combiner, error) {
	switch strings.ToUpper(spec.Algorithm) {
	case "BFS":
		return algorithms.PregelBFS{Source: spec.Source}, pregel.MinCombiner{}, nil
	case "SSSP":
		return algorithms.PregelSSSP{Source: spec.Source}, pregel.MinCombiner{}, nil
	case "PAGERANK", "PR":
		return algorithms.PregelPageRank{Iterations: spec.Iterations, Damping: 0.85}, pregel.SumCombiner{}, nil
	case "WCC":
		return algorithms.PregelWCC{}, pregel.MinCombiner{}, nil
	case "CDLP":
		return algorithms.PregelCDLP{Iterations: spec.Iterations}, nil, nil
	default:
		return nil, nil, fmt.Errorf("platforms: unknown algorithm %q for Giraph", spec.Algorithm)
	}
}

// gasProgram maps an algorithm name to its GAS program.
func gasProgram(spec Spec) (gas.Program, error) {
	switch strings.ToUpper(spec.Algorithm) {
	case "BFS":
		return algorithms.GASBFS{Source: spec.Source}, nil
	case "SSSP":
		return algorithms.GASSSSP{Source: spec.Source}, nil
	case "PAGERANK", "PR":
		return algorithms.NewGASPageRank(spec.Dataset.Graph, spec.Iterations, 0.85), nil
	case "WCC":
		return algorithms.GASWCC{}, nil
	default:
		return nil, fmt.Errorf("platforms: unknown algorithm %q for PowerGraph", spec.Algorithm)
	}
}
