package pregel

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/dfs"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/zookeeper"
)

// Deps are the platform's substrate services.
type Deps struct {
	Cluster *cluster.Cluster
	HDFS    *dfs.HDFS
	ZK      *zookeeper.Service
	// InputPath is the HDFS path of the edge-list input; it must exist
	// (use StageInput) before RunJob.
	InputPath string
	// OutputPath is the HDFS output path for OffloadGraph.
	OutputPath string
}

// StageInput registers the dataset's (scaled) edge-list file in HDFS
// without charging job time, mirroring a dataset uploaded before the
// measured run.
func StageInput(h *dfs.HDFS, path string, ds *datagen.Dataset, workScale float64) error {
	size := int64(float64(ds.SizeBytes()) * workScale)
	return h.Create(path, size)
}

// RunJob executes program over the dataset on the simulated platform,
// blocking the calling process until the job completes. Platform-log
// records are emitted through em following the Giraph performance model.
func RunJob(p *sim.Proc, deps Deps, cfg Config, program Program, ds *datagen.Dataset, em *trace.Emitter) (*Result, error) {
	if err := validate(deps, cfg); err != nil {
		return nil, err
	}
	part := cfg.Partitioner
	if part == nil {
		part = graph.NewHashPartitioner(cfg.Workers)
	}
	if part.K() != cfg.Workers {
		return nil, fmt.Errorf("pregel: partitioner has %d partitions for %d workers", part.K(), cfg.Workers)
	}
	j := &job{
		p:              p,
		eng:            p.Engine(),
		deps:           deps,
		cfg:            cfg,
		program:        program,
		ds:             ds,
		em:             em,
		js:             newJobState(ds.Graph, part, cfg.Workers, cfg.Combiner, sim.NewHostPool(cfg.HostParallelism)),
		checkpointedAt: -1,
	}
	return j.run()
}

func validate(deps Deps, cfg Config) error {
	if cfg.Workers <= 0 {
		return fmt.Errorf("pregel: workers must be positive, got %d", cfg.Workers)
	}
	if cfg.WorkScale <= 0 {
		return fmt.Errorf("pregel: work scale must be positive, got %g", cfg.WorkScale)
	}
	if cfg.MaxSupersteps <= 0 {
		return fmt.Errorf("pregel: max supersteps must be positive, got %d", cfg.MaxSupersteps)
	}
	if cfg.ComputeThreads <= 0 || cfg.ParseThreads <= 0 {
		return fmt.Errorf("pregel: thread counts must be positive")
	}
	if cfg.CheckpointInterval < 0 {
		return fmt.Errorf("pregel: negative checkpoint interval")
	}
	if cfg.FailAtSuperstep > 0 {
		if cfg.CheckpointInterval <= 0 {
			return fmt.Errorf("pregel: failure injection requires checkpointing")
		}
		if cfg.FailWorker < 0 || cfg.FailWorker >= cfg.Workers {
			return fmt.Errorf("pregel: fail worker %d out of range", cfg.FailWorker)
		}
	}
	if deps.Cluster == nil || deps.HDFS == nil || deps.ZK == nil {
		return fmt.Errorf("pregel: missing substrate dependency")
	}
	if !deps.HDFS.Exists(deps.InputPath) {
		return fmt.Errorf("pregel: input %q not staged in HDFS", deps.InputPath)
	}
	return nil
}

// worker is one launched Giraph worker: its container's node, its
// command mailbox, and its zookeeper session.
type worker struct {
	id   int
	node *cluster.Node
	cmds *sim.Mailbox[workerCmd]
	zk   *zookeeper.Session
	proc *sim.Proc
}

type workerCmd struct {
	kind string // "load", "superstep", "offload", "shutdown"
	step int
	op   trace.OpRef // parent operation for the command's trace records
	done *sim.Event
	// barrier is the per-superstep double barrier shared by the step.
	barrier *zookeeper.DoubleBarrier
}

type job struct {
	p       *sim.Proc
	eng     *sim.Engine
	deps    Deps
	cfg     Config
	program Program
	ds      *datagen.Dataset
	em      *trace.Emitter
	js      *jobState

	workers  []*worker
	splits   []dfs.Split
	masterZK *zookeeper.Session
	err      error // first worker-side error

	// Checkpoint/recovery state.
	lastCheckpoint int
	checkpointedAt int // last superstep actually checkpointed; -1 for none
	snapshot       *stateSnapshot
	failed         bool
	// replayed counts supersteps re-executed after a recovery.
	replayed int
}

func (j *job) fail(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

func (j *job) run() (*Result, error) {
	start := j.p.Now()
	root := j.em.Start(trace.Root, "GiraphClient", "GiraphJob")
	j.em.Info(root, "Dataset", j.ds.Name)
	j.em.Info(root, "Workers", fmt.Sprint(j.cfg.Workers))

	j.startup(root)
	if j.err == nil {
		j.loadGraph(root)
	}
	var supersteps int
	if j.err == nil {
		supersteps = j.processGraph(root)
	}
	if j.err == nil {
		j.offloadGraph(root)
	}
	j.cleanup(root)
	j.em.End(root)
	if j.err != nil {
		return nil, j.err
	}
	return &Result{
		Values:             j.js.values,
		Supersteps:         supersteps,
		MessagesSent:       j.js.totalWireMessages,
		EdgesLoaded:        j.ds.Graph.NumArcs(),
		ReplayedSupersteps: j.replayed,
		Runtime:            j.p.Now() - start,
	}, nil
}

// startup implements Startup = JobStartup + LaunchWorkers. JobStartup
// submits the application to YARN and is granted one container per
// worker, serially and round-robin over the nodes; LaunchWorkers starts
// them.
func (j *job) startup(root trace.OpRef) {
	c := j.cfg.Costs
	op := j.em.Start(root, "GiraphClient", "Startup")
	defer j.em.End(op)

	jobStartup := j.em.Start(op, "GiraphClient", "JobStartup")
	j.p.Sleep(c.AppSubmitSeconds)
	for range j.cfg.Workers {
		j.p.Sleep(c.ContainerAllocSeconds)
	}
	j.em.End(jobStartup)

	launch := j.em.Start(op, "GiraphMaster", "LaunchWorkers")
	ready := make([]*sim.Event, j.cfg.Workers)
	for i := 0; i < j.cfg.Workers; i++ {
		w := &worker{
			id:   i,
			node: j.deps.Cluster.Node(i % j.deps.Cluster.Size()),
			cmds: sim.NewMailbox[workerCmd](j.eng),
		}
		j.workers = append(j.workers, w)
		ready[i] = sim.NewEvent(j.eng)
		readyEv := ready[i]
		w.proc = j.launch(fmt.Sprintf("giraph-worker-%d", i), w.node, func(wp *sim.Proc) {
			local := j.em.Start(launch, w.actor(), "LocalStartup")
			w.zk = j.deps.ZK.Connect(wp, w.actor())
			// Worker registration znode.
			_ = w.zk.Create(wp, fmt.Sprintf("/giraph-w%d", w.id))
			j.em.End(local)
			readyEv.Fire()
			j.workerLoop(wp, w)
		})
	}
	for _, ev := range ready {
		ev.Wait(j.p)
	}
	j.masterZK = j.deps.ZK.Connect(j.p, "GiraphMaster")
	j.em.End(launch)
}

// launch starts fn as a container process on node, after the container
// launch latency and the JVM-startup CPU it charges there.
func (j *job) launch(name string, node *cluster.Node, fn func(*sim.Proc)) *sim.Proc {
	c := j.cfg.Costs
	return j.eng.Spawn(name, func(wp *sim.Proc) {
		wp.Sleep(c.ContainerLaunchSeconds)
		node.Exec(wp, c.ContainerLaunchCPUSeconds)
		fn(wp)
	})
}

func (w *worker) actor() string { return fmt.Sprintf("GiraphWorker-%d", w.id) }

// workerLoop serves master commands until shutdown.
func (j *job) workerLoop(wp *sim.Proc, w *worker) {
	for {
		cmd := w.cmds.Get(wp)
		switch cmd.kind {
		case "load":
			j.workerLoad(wp, w, cmd)
		case "superstep":
			j.workerSuperstep(wp, w, cmd)
		case "offload":
			j.workerOffload(wp, w, cmd)
		case "checkpoint":
			j.workerCheckpoint(wp, w, cmd)
		case "restore":
			j.workerRestore(wp, w, cmd)
		case "die":
			// Simulated crash: no shutdown cost, no session close.
			cmd.done.Fire()
			return
		case "shutdown":
			wp.Sleep(j.cfg.Costs.WorkerShutdownSeconds)
			w.zk.Close(wp)
			cmd.done.Fire()
			return
		}
		cmd.done.Fire()
	}
}

// broadcast sends a command to every worker and waits for completion.
func (j *job) broadcast(kind string, step int, op trace.OpRef, barrier func(i int) *zookeeper.DoubleBarrier) {
	events := make([]*sim.Event, len(j.workers))
	for i, w := range j.workers {
		events[i] = sim.NewEvent(j.eng)
		cmd := workerCmd{kind: kind, step: step, op: op, done: events[i]}
		if barrier != nil {
			cmd.barrier = barrier(i)
		}
		w.cmds.Put(cmd)
	}
	for _, ev := range events {
		ev.Wait(j.p)
	}
}

// loadGraph implements LoadGraph: per-worker LocalLoad → LoadHdfsData,
// then parse, shuffle, and build.
func (j *job) loadGraph(root trace.OpRef) {
	op := j.em.Start(root, "GiraphMaster", "LoadGraph")
	defer j.em.End(op)
	splits, err := j.deps.HDFS.Splits(j.deps.InputPath, j.cfg.Workers)
	if err != nil {
		j.fail(err)
		return
	}
	j.splits = splits
	j.broadcast("load", 0, op, nil)
}

func (j *job) workerLoad(wp *sim.Proc, w *worker, cmd workerCmd) {
	c := j.cfg.Costs
	local := j.em.Start(cmd.op, w.actor(), "LocalLoad")
	defer j.em.End(local)

	split := j.splits[w.id]
	hdfsOp := j.em.Start(local, w.actor(), "LoadHdfsData")
	localBytes, err := j.deps.HDFS.ReadSplit(wp, w.node, split)
	if err != nil {
		j.fail(err)
		j.em.End(hdfsOp)
		return
	}
	j.em.Infof(hdfsOp, "BytesRead", "%d", split.Length)
	j.em.Infof(hdfsOp, "BytesLocal", "%d", localBytes)
	j.em.End(hdfsOp)

	// Parse the split: CPU-intensive, highly parallel (Figure 6's
	// LoadGraph saturation). Split bytes are already at scale.
	parseCPU := float64(split.Length) * c.ParseCPUPerByte
	w.node.ExecParallel(wp, parseCPU, j.cfg.ParseThreads)

	// Shuffle: the split holds an arbitrary 1/W slice of the edge list;
	// (W-1)/W of parsed vertices belong to other workers and cross the
	// network.
	totalEdges := float64(j.ds.Graph.NumArcs()) * j.cfg.WorkScale
	edgesInSplit := totalEdges / float64(j.cfg.Workers)
	remote := edgesInSplit * float64(j.cfg.Workers-1) / float64(j.cfg.Workers)
	perPeer := remote / float64(j.cfg.Workers-1)
	for _, other := range j.workers {
		if other.id == w.id {
			continue
		}
		j.deps.Cluster.Transfer(wp, w.node, other.node, perPeer*c.ShuffleBytesPerEdge)
	}

	// Build local stores for the edges this worker owns (actual count
	// from the real partition, scaled).
	ownedArcs := j.js.ownedArcs[w.id]
	buildCPU := float64(ownedArcs) * j.cfg.WorkScale * c.BuildCPUPerEdge
	w.node.ExecParallel(wp, buildCPU, j.cfg.ParseThreads)
	j.em.Infof(local, "EdgesOwned", "%d", ownedArcs)
}

// processGraph implements ProcessGraph: the superstep loop, with optional
// checkpointing and failure recovery.
func (j *job) processGraph(root trace.OpRef) int {
	op := j.em.Start(root, "GiraphMaster", "ProcessGraph")
	defer j.em.End(op)
	steps := 0
	for steps < j.cfg.MaxSupersteps {
		if j.cfg.CheckpointInterval > 0 && steps%j.cfg.CheckpointInterval == 0 &&
			steps != j.checkpointedAt {
			j.checkpoint(op, steps)
		}
		if j.cfg.FailAtSuperstep > 0 && steps == j.cfg.FailAtSuperstep && !j.failed {
			j.failed = true
			j.replayed += steps - j.lastCheckpoint
			steps = j.recoverWorker(op)
			continue
		}
		stepOp := j.em.Start(op, "GiraphMaster", "Superstep")
		j.em.Infof(stepOp, "Superstep", "%d", steps)
		barriers := make([]*zookeeper.DoubleBarrier, len(j.workers))
		path := fmt.Sprintf("/superstep-%d", steps)
		for i, w := range j.workers {
			barriers[i] = zookeeper.NewDoubleBarrier(w.zk, path, len(j.workers), fmt.Sprintf("w%d", i))
		}
		j.broadcast("superstep", steps, stepOp, func(i int) *zookeeper.DoubleBarrier { return barriers[i] })

		// Master: advance BSP state and decide termination.
		sync := j.em.Start(stepOp, "GiraphMaster", "SyncZookeeper")
		j.masterSync()
		j.em.End(sync)
		delivered, active := j.js.swapBuffers()
		j.em.End(stepOp)
		steps++
		if delivered == 0 && active == 0 {
			break
		}
		if j.err != nil {
			break
		}
	}
	return steps
}

// checkpoint writes a recovery checkpoint: every worker persists its
// owned state to HDFS, and the master snapshots the semantic BSP state so
// a later recovery can replay from here.
func (j *job) checkpoint(processOp trace.OpRef, steps int) {
	ckOp := j.em.Start(processOp, "GiraphMaster", "Checkpoint")
	j.em.Infof(ckOp, "Superstep", "%d", steps)
	j.broadcast("checkpoint", steps, ckOp, nil)
	j.snapshot = j.js.snapshot()
	j.lastCheckpoint = steps
	j.checkpointedAt = steps
	j.em.End(ckOp)
}

// checkpointPath names a worker's checkpoint file for a superstep.
func (j *job) checkpointPath(workerID, step int) string {
	return fmt.Sprintf("/checkpoints/%s/step-%04d/part-%03d", j.em.Job(), step, workerID)
}

func (j *job) workerCheckpoint(wp *sim.Proc, w *worker, cmd workerCmd) {
	local := j.em.Start(cmd.op, w.actor(), "LocalCheckpoint")
	defer j.em.End(local)
	owned := j.ownedVertices(w.id)
	bytes := int64(float64(owned) * j.cfg.WorkScale * j.cfg.Costs.CheckpointBytesPerVertex)
	path := j.checkpointPath(w.id, cmd.step)
	if err := j.deps.HDFS.Write(wp, w.node, path, bytes); err != nil {
		j.fail(err)
		return
	}
	j.em.Infof(local, "BytesWritten", "%d", bytes)
}

// recoverWorker handles an injected worker crash: detect, restart the
// container, restore the last checkpoint everywhere, and resume from it.
// It returns the superstep to resume at.
func (j *job) recoverWorker(processOp trace.OpRef) int {
	c := j.cfg.Costs
	rec := j.em.Start(processOp, "GiraphMaster", "RecoverWorker")
	j.em.Infof(rec, "Worker", "%d", j.cfg.FailWorker)
	j.em.Infof(rec, "ResumeSuperstep", "%d", j.lastCheckpoint)

	det := j.em.Start(rec, "GiraphMaster", "DetectFailure")
	j.p.Sleep(c.RecoveryDetectSeconds)
	j.em.End(det)

	// The crashed worker's process unwinds without a clean shutdown.
	old := j.workers[j.cfg.FailWorker]
	dead := sim.NewEvent(j.eng)
	old.cmds.Put(workerCmd{kind: "die", done: dead})
	dead.Wait(j.p)

	// The replacement container is the next round-robin grant, after
	// the job's first Workers.
	restart := j.em.Start(rec, "GiraphMaster", "RestartWorker")
	j.p.Sleep(c.ContainerAllocSeconds)
	w := &worker{
		id:   j.cfg.FailWorker,
		node: j.deps.Cluster.Node(j.cfg.Workers % j.deps.Cluster.Size()),
		cmds: sim.NewMailbox[workerCmd](j.eng),
	}
	ready := sim.NewEvent(j.eng)
	w.proc = j.launch(fmt.Sprintf("giraph-worker-%d-r", w.id), w.node, func(wp *sim.Proc) {
		local := j.em.Start(restart, w.actor(), "LocalStartup")
		w.zk = j.deps.ZK.Connect(wp, w.actor())
		_ = w.zk.Create(wp, fmt.Sprintf("/giraph-w%d-r", w.id))
		j.em.End(local)
		ready.Fire()
		j.workerLoop(wp, w)
	})
	ready.Wait(j.p)
	j.workers[j.cfg.FailWorker] = w
	j.em.End(restart)

	rst := j.em.Start(rec, "GiraphMaster", "RestoreCheckpoint")
	j.broadcast("restore", j.lastCheckpoint, rst, nil)
	if j.snapshot != nil {
		j.js.restore(j.snapshot)
	}
	j.em.End(rst)
	j.em.End(rec)
	return j.lastCheckpoint
}

func (j *job) workerRestore(wp *sim.Proc, w *worker, cmd workerCmd) {
	local := j.em.Start(cmd.op, w.actor(), "LocalRestore")
	defer j.em.End(local)
	path := j.checkpointPath(w.id, cmd.step)
	splits, err := j.deps.HDFS.Splits(path, 1)
	if err != nil {
		j.fail(err)
		return
	}
	if _, err := j.deps.HDFS.ReadSplit(wp, w.node, splits[0]); err != nil {
		j.fail(err)
	}
}

// ownedVertices counts the vertices partitioned to a worker.
func (j *job) ownedVertices(workerID int) int64 {
	return int64(len(j.js.ownedLists[workerID]))
}

// masterSync models the master's coordination work at the superstep
// boundary: aggregator collection and superstep state in ZooKeeper.
func (j *job) masterSync() {
	path := fmt.Sprintf("/master-sync-%d", j.js.superstep)
	_ = j.masterZK.Create(j.p, path)
	_ = j.masterZK.Delete(j.p, path)
}

// workerSuperstep implements LocalSuperstep = PreStep + Compute + Message
// + PostStep for one worker.
func (j *job) workerSuperstep(wp *sim.Proc, w *worker, cmd workerCmd) {
	c := j.cfg.Costs
	local := j.em.Start(cmd.op, w.actor(), "LocalSuperstep")
	defer j.em.End(local)

	// PreStep: enter the superstep barrier — every worker must arrive
	// before compute begins (Giraph's superstep start synchronization).
	pre := j.em.Start(local, w.actor(), "PreStep")
	if err := cmd.barrier.Enter(wp); err != nil {
		j.fail(err)
	}
	j.em.End(pre)

	// Compute: run the vertex program over owned active vertices. The
	// semantic execution is instantaneous in simulated time; the measured
	// work is then charged to the node's CPU. The first worker to reach
	// this point computes every worker's shard on the host pool (see
	// prepareSuperstep); the rest just read their prepared counters.
	comp := j.em.Start(local, w.actor(), "Compute")
	j.js.prepareSuperstep(j.program, cmd.step)
	if j.js.sendErr != nil {
		// A vertex program violated the engine contract; fail this job
		// (every worker observes the same first error) and finish the
		// superstep's bookkeeping so the barrier protocol stays intact.
		j.fail(j.js.sendErr)
	}
	vertices := j.js.vertexCount[w.id]
	sent := j.js.sendCount[w.id]
	received := j.js.recvCount[w.id]
	cpu := (float64(vertices)*c.ComputeCPUPerVertex +
		float64(sent+received)*c.ComputeCPUPerMessage) * j.cfg.WorkScale
	w.node.ExecParallel(wp, cpu, j.cfg.ComputeThreads)
	j.em.Infof(comp, "Vertices", "%d", vertices)
	j.em.Infof(comp, "MessagesSent", "%d", sent)
	j.em.Infof(comp, "MessagesReceived", "%d", received)
	j.em.End(comp)

	// Message: flush combined messages to peer workers.
	msgOp := j.em.Start(local, w.actor(), "Message")
	for d, other := range j.workers {
		wire := j.js.wireCount[w.id][d]
		if wire == 0 || other.id == w.id {
			continue
		}
		j.deps.Cluster.Transfer(wp, w.node, other.node, float64(wire)*j.cfg.WorkScale*c.MessageBytes)
	}
	j.em.End(msgOp)

	// PostStep: leave the barrier — wait for all workers to finish.
	post := j.em.Start(local, w.actor(), "PostStep")
	if err := cmd.barrier.Leave(wp); err != nil {
		j.fail(err)
	}
	j.em.End(post)
}

// offloadGraph implements OffloadGraph: per-worker LocalOffload →
// OffloadHdfsData.
func (j *job) offloadGraph(root trace.OpRef) {
	op := j.em.Start(root, "GiraphMaster", "OffloadGraph")
	defer j.em.End(op)
	j.broadcast("offload", 0, op, nil)
}

func (j *job) workerOffload(wp *sim.Proc, w *worker, cmd workerCmd) {
	local := j.em.Start(cmd.op, w.actor(), "LocalOffload")
	defer j.em.End(local)
	owned := j.ownedVertices(w.id)
	bytes := int64(float64(owned) * j.cfg.WorkScale * j.cfg.Costs.OutputBytesPerVertex)
	hdfsOp := j.em.Start(local, w.actor(), "OffloadHdfsData")
	path := fmt.Sprintf("%s/part-%05d-%s", j.deps.OutputPath, w.id, j.em.Job())
	if err := j.deps.HDFS.Write(wp, w.node, path, bytes); err != nil {
		j.fail(err)
	}
	j.em.Infof(hdfsOp, "BytesWritten", "%d", bytes)
	j.em.End(hdfsOp)
}

// cleanup implements Cleanup = JobCleanup → AbortWorkers, ClientCleanup,
// ServerCleanup, ZkCleanup.
func (j *job) cleanup(root trace.OpRef) {
	c := j.cfg.Costs
	op := j.em.Start(root, "GiraphClient", "Cleanup")
	defer j.em.End(op)
	jc := j.em.Start(op, "GiraphClient", "JobCleanup")

	abort := j.em.Start(jc, "GiraphMaster", "AbortWorkers")
	events := make([]*sim.Event, len(j.workers))
	for i, w := range j.workers {
		events[i] = sim.NewEvent(j.eng)
		w.cmds.Put(workerCmd{kind: "shutdown", done: events[i]})
	}
	for _, ev := range events {
		ev.Wait(j.p)
	}
	j.em.End(abort)

	cc := j.em.Start(jc, "GiraphClient", "ClientCleanup")
	j.p.Sleep(c.ClientCleanupSeconds)
	j.em.End(cc)

	sc := j.em.Start(jc, "GiraphClient", "ServerCleanup")
	j.p.Sleep(c.AppReleaseSeconds)
	j.p.Sleep(c.ServerCleanupSeconds)
	j.em.End(sc)

	zc := j.em.Start(jc, "GiraphClient", "ZkCleanup")
	se := j.deps.ZK.Connect(j.p, "GiraphClient")
	for i := range j.workers {
		_ = se.Delete(j.p, fmt.Sprintf("/giraph-w%d", i))
	}
	se.Close(j.p)
	if j.masterZK != nil {
		j.masterZK.Close(j.p)
	}
	j.p.Sleep(c.ZkCleanupSeconds)
	j.em.End(zc)

	j.em.End(jc)
}
