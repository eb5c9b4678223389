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
	"repro/internal/zookeeper"
)

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
	// runtime.NumCPU(); 1 forces the serial engine.
	HostParallelism int
	// RecordSink and SampleSink, when non-nil, observe every platform-log
	// record and environment sample live, synchronously from the
	// simulation as it emits them, alongside the run's own assembler.
	// They do not change the assembled archive.
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

// body is a platform job, run as the one simulated process of RunContext
// with the emitter of the job's platform log. It returns the algorithm's
// result in an Output for finish to complete.
type body func(p *sim.Proc, em *trace.Emitter) (*Output, error)

// RunContext is Run with cancellation: when ctx is canceled or its
// deadline passes, the simulation engine is interrupted between events,
// its processes are unwound, and the context's error is returned.
func RunContext(ctx context.Context, spec Spec) (*Output, error) {
	return run(ctx, spec, paperCalibration(spec))
}

// run is RunContext with the deployment cal instead of the paper's.
func run(ctx context.Context, spec Spec, cal calibration) (*Output, error) {
	if spec.Dataset == nil {
		return nil, fmt.Errorf("platforms: spec needs a dataset")
	}
	if spec.WorkScale == 0 {
		spec.WorkScale = dg1000WorkScale(spec.Dataset)
	}
	if spec.SampleInterval <= 0 {
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
	var (
		platform string
		model    *core.Model
		setup    func(Spec, calibration, *cluster.Cluster) (body, error)
	)
	switch strings.ToLower(spec.Platform) {
	case "giraph":
		platform, model, setup = "Giraph", core.GiraphModel(), giraph
	case "powergraph":
		platform, model, setup = "PowerGraph", core.PowerGraphModel(), powerGraph
	case "openg":
		platform, model, setup = "OpenG", core.SingleNodeModel(), openG
	default:
		return nil, fmt.Errorf("platforms: unknown platform %q", spec.Platform)
	}

	eng := sim.NewEngine()
	defer eng.Shutdown()
	defer watchContext(ctx, eng)()
	c := cluster.New(eng, cal.Cluster)
	job, err := setup(spec, cal, c)
	if err != nil {
		return nil, err
	}
	em, assemble := assembling(spec.JobID, eng.Now, spec.RecordSink)
	var samples []envmon.Sample
	mon := envmon.Start(c, spec.SampleInterval, func(s envmon.Sample) {
		samples = append(samples, s)
		if spec.SampleSink != nil {
			spec.SampleSink(s)
		}
	})
	var (
		out    *Output
		runErr error
	)
	eng.Spawn("granula-session", func(p *sim.Proc) {
		out, runErr = job(p, em)
		mon.Stop()
	})
	if err := eng.Run(); err != nil {
		return nil, finishErr(ctx, fmt.Errorf("platforms: simulation failed: %w", err))
	}
	if runErr != nil {
		return nil, finishErr(ctx, runErr)
	}
	assembled, err := assemble(platform, samples)
	if err != nil {
		return nil, finishErr(ctx, err)
	}
	return finish(assembled, model, out)
}

// assembling returns the emitter of job's platform log, which adds each
// record to one monitor.Assembler as the engines emit it and forwards it
// to sink when sink is set, and the func that completes the job after the
// run: it returns the first error the assembler returned, or else the
// finished job with samples.
func assembling(job string, now func() float64, sink func(trace.Record)) (*trace.Emitter, func(platform string, samples []archive.EnvSample) (*archive.Job, error)) {
	asm := monitor.NewAssembler(job)
	var err error
	em := trace.NewEmitter(func(r trace.Record) {
		if err == nil {
			err = asm.Add(r)
		}
		if sink != nil {
			sink(r)
		}
	}, job, now)
	return em, func(platform string, samples []archive.EnvSample) (*archive.Job, error) {
		if err != nil {
			return nil, err
		}
		return asm.Finish(platform, samples)
	}
}

// giraph deploys Giraph on c as cal describes, stages the input in its
// HDFS, and returns the job body.
func giraph(spec Spec, cal calibration, c *cluster.Cluster) (body, error) {
	cfg := cal.Pregel
	cfg.WorkScale = spec.WorkScale
	cfg.HostParallelism = spec.HostParallelism
	prog, _, err := pregelProgram(spec)
	if err != nil {
		return nil, err
	}
	h := dfs.NewHDFS(c, cal.HDFS)
	deps := pregel.Deps{
		Cluster:    c,
		HDFS:       h,
		ZK:         zookeeper.NewService(c.Node(0), cal.ZooKeeper),
		InputPath:  "/input/" + spec.Dataset.Name,
		OutputPath: "/output",
	}
	if err := pregel.StageInput(h, deps.InputPath, spec.Dataset, cfg.WorkScale); err != nil {
		return nil, err
	}
	return func(p *sim.Proc, em *trace.Emitter) (*Output, error) {
		res, err := pregel.RunJob(p, deps, cfg, prog, spec.Dataset, em)
		if err != nil {
			return nil, err
		}
		return &Output{Values: res.Values, Supersteps: res.Supersteps, Runtime: res.Runtime}, nil
	}, nil
}

// powerGraph deploys PowerGraph on c as cal describes, stages the input
// in its shared store, and returns the job body.
func powerGraph(spec Spec, cal calibration, c *cluster.Cluster) (body, error) {
	cfg := cal.GAS
	cfg.WorkScale = spec.WorkScale
	cfg.HostParallelism = spec.HostParallelism
	prog, err := gasProgram(spec)
	if err != nil {
		return nil, err
	}
	store := dfs.NewSharedStore(c)
	deps := gas.Deps{
		Cluster:    c,
		Store:      store,
		MPI:        cal.MPI,
		InputPath:  "/data/" + spec.Dataset.Name,
		OutputPath: "/out",
	}
	if err := gas.StageInput(store, deps.InputPath, spec.Dataset, cfg.WorkScale); err != nil {
		return nil, err
	}
	return func(p *sim.Proc, em *trace.Emitter) (*Output, error) {
		res, err := gas.RunJob(p, deps, cfg, prog, spec.Dataset, em)
		if err != nil {
			return nil, err
		}
		return &Output{Values: res.Values, Supersteps: res.Iterations, Runtime: res.Runtime,
			ReplicationFactor: res.ReplicationFactor}, nil
	}, nil
}

// openG deploys the single-node OpenG platform on c as cal describes,
// stages its input, and returns the job body.
func openG(spec Spec, cal calibration, c *cluster.Cluster) (body, error) {
	cfg := cal.Single
	cfg.WorkScale = spec.WorkScale
	kernel, err := singleKernel(spec)
	if err != nil {
		return nil, err
	}
	deps := single.Deps{
		Cluster:    c,
		InputBytes: single.StageInput(spec.Dataset, cfg.WorkScale),
		OutputPath: "/local/out",
	}
	return func(p *sim.Proc, em *trace.Emitter) (*Output, error) {
		res, err := single.RunJob(p, deps, cfg, kernel, spec.Dataset, em)
		if err != nil {
			return nil, err
		}
		return &Output{Values: res.Values, Supersteps: res.Iterations, Runtime: res.Runtime}, nil
	}, nil
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

// finish completes out, the platform body's result, with the assembled
// job: it applies the standard derivation rules, annotates the domain
// breakdown, validates the job and checks it against model.
func finish(job *archive.Job, model *core.Model, out *Output) (*Output, error) {
	metrics.StandardRules().Apply(job)
	breakdown, err := metrics.AnnotateDomainBreakdown(job)
	if err != nil {
		return nil, err
	}
	if err := job.Validate(); err != nil {
		return nil, err
	}
	out.Job, out.Breakdown, out.Model, out.ModelErrors = job, breakdown, model, model.CheckJob(job)
	return out, nil
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
