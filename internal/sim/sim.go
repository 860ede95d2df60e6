// Package sim is the scale simulator: it replays the paper's
// experiments (up to 100k invocations on 150 heterogeneous workers)
// under a deterministic virtual clock, and the calibrated cost models
// of internal/apps. Contention is modeled with processor-sharing
// resources: the shared filesystem (bandwidth + IOPS), the manager's
// NIC, per-worker NICs and local disks.
//
// The real engine (internal/manager, internal/worker) demonstrates the
// mechanisms; this simulator reproduces the paper's numbers. Both are
// thin drivers of the same pure policy core: the simulator maintains a
// policy.ClusterView mirroring its virtual cluster and calls
// internal/policy for every scheduling decision — task placement,
// ready-instance selection, library deploys, peer-source picks,
// first-copy suppression — exactly as the manager does. This file only
// executes those decisions under the virtual clock; replay.go drives
// the same state machine from an explicit event list so the
// differential harness can diff decision traces against the real
// manager.
package sim

import (
	"strconv"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
	"repro/internal/policy"
)

// Config parameterizes one simulated run.
type Config struct {
	App   *apps.CostModel
	Level core.ReuseLevel
	// Workers is the number of TaskVine workers (each 32 cores / 64 GB,
	// §4.2).
	Workers int
	// SlotsPerWorker is the concurrent invocation capacity (16 for
	// LNNI's 2-core invocations, 8 for ExaMol's 4-core ones).
	SlotsPerWorker int
	// Invocations is the workload size.
	Invocations int
	// Units scales one invocation's work (inferences per invocation).
	Units int
	Seed  uint64
	// PeerTransfers enables worker-to-worker environment distribution
	// (Figure 3b); off forces manager-only (3a).
	PeerTransfers bool
	// PeerCap is the per-source concurrent transfer cap N.
	PeerCap int
	// ManagerSourceCap is how many environment copies the manager sends
	// concurrently itself (1 = the paper's sequential initial sends).
	ManagerSourceCap int
	// FetchConcurrency bounds how many inbound transfers one worker
	// runs concurrently — the virtual-time mirror of the worker data
	// plane's bounded fetch pool (internal/dataplane). Transfers beyond
	// the cap queue FIFO on the destination; staging *decisions* are
	// made (and traced) before the queueing, so the bound shapes timing
	// only, never decision order.
	FetchConcurrency int
	// Machines overrides the default Table 3 proportional sample.
	Machines []cluster.Machine
	// Clusters splits workers into k equal network-locality groups with
	// constrained cross-group transfers (Figure 3c). 0 or 1 = one
	// cluster.
	Clusters int
	// CrossClusterBytesPerSec is the constrained inter-cluster
	// bandwidth (used when Clusters > 1).
	CrossClusterBytesPerSec float64
	// SeriesSamples is the number of points recorded for the
	// deployed-libraries and share-value series.
	SeriesSamples int
	// KeepTimes retains every invocation runtime (Table 4 / Figure 7);
	// disable to save memory on huge sweeps.
	DropTimes bool
	// MaxEvents bounds the event count (0 = a generous default backstop).
	MaxEvents int64
	// FSPerFlowBW caps one client's shared-FS streaming rate
	// (bytes/second; default 35 MB/s — the effective per-client rate of
	// a many-small-file read pattern on the paper's Panasas system).
	FSPerFlowBW float64
	// FSPerFlowOps caps one client's shared-FS metadata operation rate
	// (default 200/s — latency-bound RPCs).
	FSPerFlowOps float64
	// ExecDraws optionally fixes the per-invocation base execution
	// times (reference-machine seconds): invocation i uses ExecDraws[i].
	// Experiments use this as common random numbers so different reuse
	// levels face the identical workload and differences reflect only
	// the mechanisms.
	ExecDraws []float64
	// EvictIdleLibraries ablates §3.5.2's empty-library eviction when
	// running two-app mixes (used by the ablation experiments).
	// (Single-app runs never evict.)
	EvictIdleLibraries bool
	// DecisionTrace, when set, records every scheduling decision the
	// policy core hands this run (differential and golden tests). nil
	// keeps tracing off the dispatch path.
	DecisionTrace *policy.Recorder
	// Batched makes Replay drains plan through the batched policy entry
	// points (PlanTaskBatchInto / PlaceReadyBatchInto) the sharded
	// manager uses, instead of one decision at a time. The batch
	// contract is strict sequential equivalence, so the decision trace
	// must be identical either way — the batched-vs-unbatched
	// differential test proves it on live random traces. Replay-only;
	// the timed path is untouched.
	Batched bool
	// Tenants enables the submission plane (DESIGN.md §14): every
	// arrival passes admission control and waits in its tenant's plane
	// queue until the weighted fair-share drain releases it — the
	// manager's policy.TenantPlane. Replay drivers take tenant specs
	// via the *Tenant entry points; the timed simulator replaces
	// Invocations with per-tenant Poisson arrival processes.
	Tenants []core.TenantSpec
	// TenantRates are per-tenant Poisson arrival rates in
	// invocations/second, index-aligned with Tenants as given (timed
	// runs only; unset entries default to 1/s).
	TenantRates []float64
	// TenantInvocations are per-tenant arrival counts, index-aligned
	// with Tenants as given (timed runs only). Their sum replaces
	// Invocations as the workload size.
	TenantInvocations []int
	// RefOwnedBytesCap bounds the owned (cache-tier) proxy-object bytes
	// per worker in the replay's ref mirror — the manager's
	// Options.RefOwnedBytesCap. 0 means unbounded (no spills).
	RefOwnedBytesCap int64
}

func (c *Config) defaults() {
	if c.SlotsPerWorker == 0 {
		c.SlotsPerWorker = 16
	}
	if c.Units == 0 {
		c.Units = 16
	}
	if c.PeerCap == 0 {
		c.PeerCap = 3
	}
	if c.ManagerSourceCap == 0 {
		c.ManagerSourceCap = 1
	}
	if c.FetchConcurrency == 0 {
		c.FetchConcurrency = 4
	}
	if c.SeriesSamples == 0 {
		c.SeriesSamples = 200
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	if c.FSPerFlowBW == 0 {
		c.FSPerFlowBW = 60e6
	}
	if c.FSPerFlowOps == 0 {
		c.FSPerFlowOps = 200
	}
	if len(c.Tenants) > 0 && c.Invocations == 0 {
		for _, n := range c.TenantInvocations {
			c.Invocations += n
		}
	}
}

// Breakdown is the Table 5 style per-phase decomposition, in seconds.
type Breakdown struct {
	Transfer float64 // invocation & data transfer
	Worker   float64 // worker-side environment setup (unpack, sandbox)
	Setup    float64 // library/invocation state reconstruction
	Exec     float64 // function execution
}

// Total sums the phases.
func (b Breakdown) Total() float64 { return b.Transfer + b.Worker + b.Setup + b.Exec }

// Result is everything a run produces.
type Result struct {
	Level       core.ReuseLevel
	Workers     int
	Invocations int
	Units       int

	// TotalTime is the application execution time (Figure 6/8/9).
	TotalTime float64
	// Times are per-invocation runtimes, slot-assignment to completion
	// (Table 4 / Figure 7).
	Times   []float64
	Summary metrics.Summary

	// DeployedSeries is deployed library instances vs completed
	// invocations (Figure 10); ShareSeries is average share value vs
	// completed invocations (Figure 11). L3 only.
	DeployedSeries metrics.Series
	ShareSeries    metrics.Series
	LibsDeployed   int

	// ColdBreakdown and HotBreakdown decompose the first and the
	// steady-state invocation on a worker (Table 5 L2 rows); LibBreakdown
	// and InvBreakdown decompose L3's library install and per-invocation
	// costs (Table 5 L3 rows).
	ColdBreakdown Breakdown
	HotBreakdown  Breakdown
	LibBreakdown  Breakdown
	InvBreakdown  Breakdown

	// ManagerBusySeconds is time the manager spent serialized on
	// dispatch+retrieval.
	ManagerBusySeconds float64
	// SubmitsShed and SubmitsThrottled count submission-plane admission
	// outcomes (tenant runs only): shed arrivals never enter the
	// engine; throttled ones are admitted with backpressure signaled.
	SubmitsShed      int
	SubmitsThrottled int
	// EnvDirect and EnvPeer count environment transfers by source.
	EnvDirect int
	EnvPeer   int
	// SharedFSBytes is the total volume read from the shared FS.
	SharedFSBytes float64
	// PeakInFlight is the maximum concurrent invocations observed.
	PeakInFlight int
}

// state is the live simulation.
type state struct {
	cfg Config
	S   *event.Sim
	rng *event.RNG

	fs         *event.DualFairShare
	managerNIC *event.FairShare
	crossNIC   *event.FairShare

	workers []*wstate
	byID    map[string]*wstate
	// machines is the sampled (and shuffled) machine pool; nextIdx is
	// the next worker index, so churn (Replay.AddWorker) continues the
	// "wNNNN" numbering instead of reusing dead IDs.
	machines []cluster.Machine
	nextIdx  int

	// view mirrors the virtual cluster for the policy core: worker
	// resources are invocation slots (1 core = 1 slot), the library's
	// per-slot instances, the environment tarball's replicas and
	// in-flight copies. All placement decisions read it.
	view *policy.ClusterView
	rec  *policy.Recorder
	// envSpec is the environment tarball as a policy-visible file spec
	// (L2/L3); envObj is its identity.
	envSpec core.FileSpec
	envObj  string
	lib     string

	pending    int
	nextInv    int
	mgrBusy    bool
	completed  int
	inFlight   int
	sampleStep int

	// plane is the timed simulator's submission plane (Config.Tenants);
	// the replay drivers keep their planes on the Replay/ShardedReplay
	// composites instead, with their own recorders, so the plane trace
	// stays a separate stream exactly as the manager's is.
	plane *policy.TenantPlane[simSpec]
	// trackOwners threads admitted-spec identity through the pending
	// pool: owners is the FIFO of admitted-but-unplaced invocation refs
	// (head-indexed like the plane's tenant FIFOs). The timed path
	// pops at bind; replay pops at each recorded placement, mirroring
	// the manager placing its queue head at every TracePlace.
	trackOwners bool
	owners      []specRef
	ownersHead  int
	// arrivalsLeft and nextSpecID drive the timed per-tenant Poisson
	// arrival processes.
	arrivalsLeft []int
	nextSpecID   int64

	// replay bypasses the virtual clock: decisions and view/slot state
	// advance, timing callbacks do not (replay.go drives transitions).
	replay bool

	// refs is the replay's mirror of the manager's ref plane (refs.go);
	// nil on the timed path, which never builds by-ref inputs.
	refs *simRefs

	res *Result

	coldN, hotN, libN, invN float64
}

type wstate struct {
	idx     int
	id      string
	mach    cluster.Machine
	cluster int
	disk    *event.FairShare
	nic     *event.FairShare

	// v and lv are this worker's entries in the policy view; lv models
	// the application library with one single-slot instance per
	// deploy-committed slot (MaxInstances = SlotsPerWorker), so the
	// policy core sees the same FreeReady quantity the manager
	// publishes for its one multi-slot instance.
	v  *policy.WorkerView
	lv *policy.LibraryView

	hasEnv     bool // environment unpacked and usable
	envReqAt   float64
	envWaiters []func()
	// envSrc is the peer serving the in-flight environment fetch (nil
	// for manager sends); its transfer slot is released on arrival.
	envSrc *wstate
	// dead marks a worker removed by Replay.KillWorker; it stays in
	// st.workers (indexes are stable) but is out of byID and the view.
	dead bool

	// fetchActive/fetchq implement the destination-side transfer bound
	// (Config.FetchConcurrency): inbound transfers beyond the cap wait
	// here FIFO, after their staging decision was already recorded.
	fetchActive int
	fetchq      []func()

	slots []*slot

	// busySlots, freeReady and readySlots are maintained counters so
	// slot selection scans workers, not workers×slots; freeReady is
	// also what the view's ReadyFree index publishes.
	busySlots  int
	freeReady  int
	readySlots int
}

type slot struct {
	w        *wstate
	busy     bool
	libReady bool
	served   int
	invIdx   int    // index of the invocation currently assigned
	key      string // replay only: the bound task's ring key (requeued verbatim on churn)
	// refs are the bound task's proxy-object input IDs (replay only):
	// requeued with the key on churn or retry, and noted as view
	// replicas on the slot's result — the manager's cacheable-input
	// replica notes in onResult.
	refs []string
	// owner and tenant identify the bound spec in tenant runs: owner is
	// the manager-side spec ID (completions free the lowest owner, the
	// differential harness's rule), tenant names whose quota the
	// completion releases.
	owner  int64
	tenant string
}

var oneSlot = core.Resources{Cores: 1}

// takeSlot marks a slot occupied, maintaining the scan counters and
// the worker's view commitment. Commitment follows the manager's
// model: tasks (L1/L2) commit per running task, but L3 commits per
// *installed instance* — charged at deploy time in tryDeploy and held
// across idle periods, exactly like installLibraryLocked — so binding
// or freeing an invocation moves no resources.
func (st *state) takeSlot(w *wstate, sl *slot) {
	sl.busy = true
	w.busySlots++
	if sl.libReady {
		w.freeReady--
	}
	if st.cfg.Level != core.L3 {
		w.v.Commit = w.v.Commit.Add(oneSlot)
	}
	st.syncLib(w)
}

// freeSlot releases a slot.
func (st *state) freeSlot(w *wstate, sl *slot) {
	sl.busy = false
	w.busySlots--
	if sl.libReady {
		w.freeReady++
	}
	if st.cfg.Level != core.L3 {
		w.v.Commit = w.v.Commit.Sub(oneSlot)
	}
	st.syncLib(w)
}

// markLibReady flags a deploy-bound slot's instance as ready — the
// simulator's LibraryAck — and records the resulting invocation
// placement, mirroring the manager placing the queued invocation when
// the ack arrives.
func (st *state) markLibReady(w *wstate, sl *slot) {
	if sl.libReady {
		return
	}
	sl.libReady = true
	w.readySlots++
	if !sl.busy {
		w.freeReady++
	}
	w.lv.Ready = true
	st.syncLib(w)
	if st.rec != nil {
		st.rec.Record(policy.TracePlace(st.lib, policy.PlaceInvocation{Worker: w.v}))
	}
	st.stampOwner(sl)
}

// syncLib republishes the worker's free ready-slot count into the
// view's ReadyFree index (L3 only — tasks have no library).
func (st *state) syncLib(w *wstate) {
	if st.cfg.Level != core.L3 {
		return
	}
	st.view.SetFreeReady(w.v, w.lv, w.freeReady)
}

// firstFree returns the worker's first free slot in slot order,
// optionally restricted to deployed-library slots. Callers invoke it
// only after the counters guarantee a match exists, so the single
// inner scan happens once per dispatch, not once per candidate worker.
func (w *wstate) firstFree(needLib bool) *slot {
	for _, sl := range w.slots {
		if !sl.busy && (!needLib || sl.libReady) {
			return sl
		}
	}
	return nil
}

// Run executes one simulated experiment.
func Run(cfg Config) *Result {
	cfg.defaults()
	st := newState(cfg)
	st.startTenantArrivals()
	st.tryDispatch()
	st.res.TotalTime = st.S.Run()
	if st.plane != nil {
		for _, t := range st.plane.Stats() {
			st.res.SubmitsShed += int(t.Shed)
			st.res.SubmitsThrottled += int(t.Throttled)
		}
	}
	st.res.Summary = metrics.Summarize(st.res.Times)
	st.finishBreakdowns()
	return st.res
}

// newState builds the initial simulation state.
func newState(cfg Config) *state {
	st := &state{
		cfg: cfg,
		S:   event.NewSim(),
		rng: event.NewRNG(cfg.Seed),
		res: &Result{
			Level:       cfg.Level,
			Workers:     cfg.Workers,
			Invocations: cfg.Invocations,
			Units:       cfg.Units,
		},
		byID: map[string]*wstate{},
		rec:  cfg.DecisionTrace,
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 2_000_000_000
	}
	st.S.MaxEvents = cfg.MaxEvents
	st.res.DeployedSeries.Name = "deployed-libraries"
	st.res.ShareSeries.Name = "avg-share-value"

	st.view = policy.NewClusterView(policy.Options{
		PeerTransfers:       cfg.PeerTransfers,
		PeerTransferCap:     cfg.PeerCap,
		ClusterAware:        cfg.Clusters > 1,
		EvictEmptyLibraries: cfg.EvictIdleLibraries,
		ManagerSourceCap:    cfg.ManagerSourceCap,
	})
	if cfg.App != nil {
		st.lib = cfg.App.Name
		st.envObj = "env:" + cfg.App.Name
		st.envSpec = core.FileSpec{
			Object: &content.Object{
				ID:          st.envObj,
				Name:        st.envObj,
				LogicalSize: cfg.App.EnvPackedBytes + cfg.App.FuncBlobBytes,
			},
			Cache:        true,
			PeerTransfer: true,
			Unpack:       true,
		}
	}

	// Shared filesystem: the Panasas figures of §4.3 with per-client
	// effective-rate caps.
	st.fs = event.NewDualFairShare(st.S, 84e9/8, cfg.FSPerFlowBW, 94000, cfg.FSPerFlowOps)
	st.managerNIC = event.NewFairShare(st.S, cluster.NIC10GbE, 0)
	if cfg.Clusters > 1 {
		bw := cfg.CrossClusterBytesPerSec
		if bw == 0 {
			bw = cluster.NIC10GbE / 8 // constrained WAN-ish link
		}
		st.crossNIC = event.NewFairShare(st.S, bw, 0)
	}

	machines := cfg.Machines
	if machines == nil {
		// Workers may be 0 (a sharded-replay shard that receives all its
		// workers by AddWorkerNamed): keep at least one machine sampled so
		// mid-run joins have hardware to draw from.
		n := cfg.Workers
		if n < 1 {
			n = 1
		}
		machines = cluster.Sample(cluster.Table3(), n)
	}
	// Deterministically shuffle so machine groups interleave across the
	// dispatch order.
	perm := st.rng
	for i := len(machines) - 1; i > 0; i-- {
		j := perm.Intn(i + 1)
		machines[i], machines[j] = machines[j], machines[i]
	}
	st.machines = machines
	for i := 0; i < cfg.Workers; i++ {
		st.addWorker()
	}

	st.pending = cfg.Invocations
	st.sampleStep = cfg.Invocations / cfg.SeriesSamples
	if st.sampleStep == 0 {
		st.sampleStep = 1
	}
	if !cfg.DropTimes {
		st.res.Times = make([]float64, 0, cfg.Invocations)
	}
	return st
}

// addWorker builds worker nextIdx, registers it in the view (which
// puts it on the placement ring), and returns it. Used both by
// newState and by Replay.AddWorker for mid-run joins.
func (st *state) addWorker() *wstate {
	return st.addWorkerNamed("w" + pad4(st.nextIdx))
}

// addWorkerNamed is addWorker with an explicit ID — the sharded replay
// numbers workers globally (across shards), so a shard cannot derive
// the ID from its own worker count.
func (st *state) addWorkerNamed(id string) *wstate {
	cfg := st.cfg
	i := st.nextIdx
	st.nextIdx++
	m := st.machines[i%len(st.machines)]
	w := &wstate{
		idx:  i,
		id:   id,
		mach: m,
		disk: event.NewFairShare(st.S, m.DiskBytesPerSec, 0),
		nic:  event.NewFairShare(st.S, m.NICBytesPerSec, 0),
	}
	if cfg.Clusters > 1 {
		if i < cfg.Workers {
			w.cluster = i * cfg.Clusters / cfg.Workers
		} else {
			w.cluster = i % cfg.Clusters
		}
	}
	clusterName := ""
	if cfg.Clusters > 1 {
		clusterName = strconv.Itoa(w.cluster)
	}
	w.v = st.view.AddWorker(w.id, clusterName, core.Resources{Cores: cfg.SlotsPerWorker})
	w.lv = &policy.LibraryView{
		Name:         st.lib,
		Slots:        1,
		MaxInstances: cfg.SlotsPerWorker,
		Res:          oneSlot,
	}
	for k := 0; k < cfg.SlotsPerWorker; k++ {
		w.slots = append(w.slots, &slot{w: w})
	}
	st.workers = append(st.workers, w)
	st.byID[w.id] = w
	return w
}

// pad4 renders a worker index as a fixed-width suffix so worker IDs
// sort (and hash) identically across engines.
func pad4(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 4 {
		s = "0" + s
	}
	return s
}

func (st *state) finishBreakdowns() {
	if st.coldN > 0 {
		st.res.ColdBreakdown = scaleBreakdown(st.res.ColdBreakdown, 1/st.coldN)
	}
	if st.hotN > 0 {
		st.res.HotBreakdown = scaleBreakdown(st.res.HotBreakdown, 1/st.hotN)
	}
	if st.libN > 0 {
		st.res.LibBreakdown = scaleBreakdown(st.res.LibBreakdown, 1/st.libN)
	}
	if st.invN > 0 {
		st.res.InvBreakdown = scaleBreakdown(st.res.InvBreakdown, 1/st.invN)
	}
}

func scaleBreakdown(b Breakdown, f float64) Breakdown {
	return Breakdown{Transfer: b.Transfer * f, Worker: b.Worker * f, Setup: b.Setup * f, Exec: b.Exec * f}
}

// cpuScale converts a reference-machine duration to this machine.
func cpuScale(m cluster.Machine) float64 {
	if m.GFlops <= 0 {
		return 1
	}
	return cluster.ReferenceGFlops / m.GFlops
}

func (st *state) dispatchCost() float64 {
	switch st.cfg.Level {
	case core.L1:
		return st.cfg.App.DispatchL1
	case core.L2:
		return st.cfg.App.DispatchL2
	default:
		return st.cfg.App.DispatchL3
	}
}

// tryDispatch runs the manager's serialized dispatch loop: one
// dispatch at a time, each charging the per-level manager cost, each
// requiring a placement decision from the policy core.
func (st *state) tryDispatch() {
	if st.replay || st.mgrBusy || st.pending == 0 {
		return
	}
	sl := st.place()
	if sl == nil {
		return
	}
	st.inFlight++
	if st.inFlight > st.res.PeakInFlight {
		st.res.PeakInFlight = st.inFlight
	}
	st.mgrBusy = true
	d := st.dispatchCost()
	st.res.ManagerBusySeconds += d
	st.S.After(d, func() {
		st.mgrBusy = false
		st.assign(sl)
		st.tryDispatch()
	})
}

// speculativeCap bounds how many invocations stack on a worker whose
// environment has not arrived yet: a deep queue there would burst into
// the local disk all at once on arrival. It is driver knowledge (a
// virtual-time admission heuristic), expressed as a view filter.
const speculativeCap = 4

func (st *state) stackFilter() policy.Filter {
	if st.cfg.Level == core.L1 {
		return nil
	}
	return func(wv *policy.WorkerView) bool {
		return st.byID[wv.ID].hasEnv || wv.Commit.Cores < speculativeCap
	}
}

// place asks the policy core where the next invocation runs, executes
// the staging decisions, and binds the invocation to a slot. nil means
// no placement is possible until some event (arrival, completion,
// unpack) changes the view.
func (st *state) place() *slot {
	if st.cfg.Level == core.L3 {
		return st.placeL3()
	}
	return st.placeTask()
}

// bind assigns the next invocation index to the chosen slot. The
// timed path stamps the spec's owner here (one engine, any consistent
// assignment works); replay stamps at each recorded placement instead
// (stampOwner), mirroring the manager's queue-head pop per TracePlace.
func (st *state) bind(w *wstate, sl *slot) *slot {
	st.takeSlot(w, sl)
	sl.invIdx = st.nextInv
	st.nextInv++
	st.pending--
	if st.trackOwners && !st.replay {
		ref := st.popOwner()
		sl.owner, sl.tenant = ref.id, ref.tenant
	}
	return sl
}

// placeTask places an L1/L2 invocation as a stateless task: hash-ring
// walk keyed by the task, environment staged as an input (L2).
func (st *state) placeTask() *slot {
	key := "task-" + strconv.Itoa(st.nextInv+1)
	var inputs []core.FileSpec
	if st.cfg.Level != core.L1 {
		inputs = []core.FileSpec{st.envSpec}
	}
	d := st.view.PlanTask(key, oneSlot, inputs, st.stackFilter())
	if d.Worker == nil {
		return nil
	}
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TraceTask(key, d))
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	return st.bind(w, w.firstFree(false))
}

// placeL3 places an invocation on a ready library instance, or deploys
// a new per-slot instance when none has room (§3.5.2).
func (st *state) placeL3() *slot {
	if d := st.view.PlaceReady(st.lib, nil); d.Worker != nil {
		return st.execReady(d)
	}
	return st.tryDeploy()
}

// execReady binds an invocation to the ready instance the policy core
// picked, recording the placement.
func (st *state) execReady(d policy.PlaceInvocation) *slot {
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TracePlace(st.lib, d))
	}
	sl := st.bind(w, w.firstFree(true))
	st.stampOwner(sl)
	return sl
}

// tryDeploy asks the policy core for a deploy decision and binds an
// invocation to the deploying slot. nil means no worker can host a new
// instance now.
func (st *state) tryDeploy() *slot {
	d := st.view.PlanDeploy(policy.DeploySpec{
		Name:  st.lib,
		Res:   oneSlot,
		Files: []core.FileSpec{st.envSpec},
	}, st.stackFilter())
	if d.Worker == nil {
		return nil
	}
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TraceDeploy(st.lib, d))
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	st.view.AddInstance(w.v, w.lv)
	// The install's resource claim, held for the instance's lifetime
	// (the manager releases it only on eviction, install failure, or
	// worker death — none of which the simulator's instances hit).
	w.v.Commit = w.v.Commit.Add(oneSlot)
	return st.bind(w, w.firstFree(false))
}

// ---- environment distribution (§3.3) ----

func (st *state) envBytes() float64 {
	return float64(st.cfg.App.EnvPackedBytes + st.cfg.App.FuncBlobBytes)
}

// startFetch admits an inbound transfer on the destination worker:
// run starts it on its link now if the worker has a free fetch slot
// (Config.FetchConcurrency — the data plane's bounded pool), otherwise
// it queues FIFO until fetchDone frees one. The staging decision was
// already made and traced; the gate only delays the wire time.
func (st *state) startFetch(w *wstate, run func()) {
	if w.fetchActive < st.cfg.FetchConcurrency {
		w.fetchActive++
		run()
		return
	}
	w.fetchq = append(w.fetchq, run)
}

// fetchDone releases one inbound-transfer slot, starting the oldest
// queued transfer if any.
func (st *state) fetchDone(w *wstate) {
	if len(w.fetchq) > 0 {
		run := w.fetchq[0]
		w.fetchq = w.fetchq[1:]
		run()
		return
	}
	if w.fetchActive > 0 {
		w.fetchActive--
	}
}

// execStage carries out one staging decision: account it in the view
// (in-flight copy, source transfer slot, manager sends) and start the
// transfer on the owning link. StageReady is a no-op by construction;
// StageWait never reaches execution (the policy returns it only from
// rejected placements).
func (st *state) execStage(sf policy.StageFile) {
	dst := st.byID[sf.Dst.ID]
	switch sf.Mode {
	case policy.StagePeer:
		src := st.byID[sf.Src.ID]
		st.view.NotePending(dst.v, sf.Object)
		src.v.TransfersOut++
		dst.envSrc = src
		st.res.EnvPeer++
		if st.rec != nil {
			st.rec.Record(policy.TraceStage(sf))
		}
		dst.envReqAt = st.S.Now()
		if !st.replay {
			link := src.nic
			if st.crossNIC != nil && src.cluster != dst.cluster {
				link = st.crossNIC
			}
			st.startFetch(dst, func() {
				link.Start(st.envBytes(), func() {
					st.fetchDone(dst)
					st.envArrived(dst)
				})
			})
		}
	case policy.StageDirect:
		st.view.NotePending(dst.v, sf.Object)
		st.view.ManagerSends++
		st.res.EnvDirect++
		if st.rec != nil {
			st.rec.Record(policy.TraceStage(sf))
		}
		dst.envReqAt = st.S.Now()
		if !st.replay {
			st.startFetch(dst, func() {
				st.managerNIC.Start(st.envBytes(), func() {
					st.fetchDone(dst)
					st.envArrived(dst)
				})
			})
		}
	case policy.StageRef:
		// Proxy-object input (§15): the shard trace records only that a
		// ref stage ran — the per-shard view cannot plan the copy — and
		// the global ref mirror plans (and traces) the actual source,
		// exactly as the manager's ref plane does.
		if st.rec != nil {
			st.rec.Record(policy.TraceStage(sf))
		}
		if st.refs != nil {
			st.refs.stage(st, dst, sf.Object)
		}
	}
}

// envLanded settles the transfer's accounting once the tarball is on
// the destination: release the serving link's slot and flip the
// in-flight copy into a confirmed replica (a peer-transfer source,
// before unpacking even starts).
func (st *state) envLanded(w *wstate) {
	if src := w.envSrc; src != nil {
		w.envSrc = nil
		if src.v.TransfersOut > 0 {
			src.v.TransfersOut--
		}
	} else if st.view.ManagerSends > 0 {
		st.view.ManagerSends--
	}
	st.view.ClearPending(w.v, st.envObj)
	st.view.NoteReplica(w.v, st.envObj)
}

// envArrived (timed path) charges the transfer and unpack breakdowns,
// then wakes the invocations waiting on the environment.
func (st *state) envArrived(w *wstate) {
	app := st.cfg.App
	transfer := st.S.Now() - w.envReqAt
	unpack := st.jitter(app.UnpackSeconds)
	if st.cfg.Level == core.L3 {
		st.res.LibBreakdown.Worker += unpack
		st.res.LibBreakdown.Transfer += transfer
	} else {
		st.res.ColdBreakdown.Worker += unpack
		st.res.ColdBreakdown.Transfer += transfer
	}
	st.envLanded(w)
	// A new source (and a freed serving slot) can unblock placements
	// that the policy answered with Wait.
	st.tryDispatch()
	st.S.After(unpack, func() {
		w.hasEnv = true
		waiters := w.envWaiters
		w.envWaiters = nil
		for _, cont := range waiters {
			cont()
		}
		st.tryDispatch()
	})
}

// ensureEnv continues when the worker's environment is unpacked and
// ready. The transfer itself was already started by the placement's
// staging decision (or an earlier one); invocations placed behind an
// in-flight copy just wait here.
func (st *state) ensureEnv(w *wstate, cont func()) {
	if w.hasEnv {
		cont()
		return
	}
	w.envWaiters = append(w.envWaiters, cont)
}

// ---- invocation execution ----

// assign runs one invocation through its level's phases on the slot.
func (st *state) assign(sl *slot) {
	start := st.S.Now()
	switch st.cfg.Level {
	case core.L1:
		st.runL1(sl, start)
	case core.L2:
		st.runL2(sl, start)
	default:
		st.runL3(sl, start)
	}
}

// execFor samples (or looks up) the invocation's base execution time
// and scales it to the slot's machine.
func (st *state) execFor(sl *slot) float64 {
	if d := st.cfg.ExecDraws; len(d) > 0 {
		t := d[sl.invIdx%len(d)]
		if g := sl.w.mach.GFlops; g > 0 {
			t *= cluster.ReferenceGFlops / g
		}
		return t
	}
	return st.cfg.App.ExecOn(st.rng, st.cfg.Units, sl.w.mach.GFlops, cluster.ReferenceGFlops)
}

func (st *state) jitter(x float64) float64 {
	if st.cfg.App.JitterSigma <= 0 || x <= 0 {
		return x
	}
	return st.rng.LogNormal(x, st.cfg.App.JitterSigma)
}

// complete finishes an invocation: record metrics, free the slot,
// resume dispatch.
func (st *state) complete(sl *slot, start float64) {
	runtime := st.S.Now() - start
	if !st.cfg.DropTimes {
		st.res.Times = append(st.res.Times, runtime)
	}
	st.freeSlot(sl.w, sl)
	sl.served++
	st.inFlight--
	st.completed++
	if st.cfg.Level == core.L3 && st.completed%st.sampleStep == 0 {
		st.sampleSeries()
	}
	if st.plane != nil {
		tenant := sl.tenant
		sl.owner, sl.tenant = 0, ""
		if st.plane.Release(tenant) {
			st.drainPlaneTimed()
		}
	}
	st.tryDispatch()
}

func (st *state) sampleSeries() {
	deployed := 0
	served := 0
	for _, w := range st.workers {
		for _, sl := range w.slots {
			if sl.libReady {
				deployed++
				served += sl.served
			}
		}
	}
	x := float64(st.completed)
	st.res.DeployedSeries.Add(x, float64(deployed))
	if deployed > 0 {
		st.res.ShareSeries.Add(x, float64(served)/float64(deployed))
	}
	st.res.LibsDeployed = deployed
}

// ---- L1: no reuse; everything through the shared filesystem ----

func (st *state) runL1(sl *slot, start float64) {
	app := st.cfg.App
	scale := cpuScale(sl.w.mach)
	bytes := float64(app.SharedFSBytes + app.FuncBlobBytes)
	if app.FSBytesSigma > 0 {
		bytes = st.rng.LogNormal(bytes, app.FSBytesSigma)
	}
	ops := app.SharedFSOps
	if app.FSStormProb > 0 && st.rng.Float64() < app.FSStormProb {
		// A storm replaces the usual spread: the cost is re-walking the
		// whole environment through the metadata server.
		ops = app.SharedFSOps * app.FSStormFactor
	} else if app.FSOpsSigma > 0 {
		ops = st.rng.LogNormal(ops, app.FSOpsSigma)
	}
	st.res.SharedFSBytes += bytes
	fsStart := st.S.Now()
	st.fs.Start(bytes, ops, func() {
		read := st.S.Now() - fsStart
		deser := st.jitter(app.DeserializeSeconds * scale)
		build := st.jitter(app.BuildSeconds * scale)
		exec := st.execFor(sl)
		st.res.ColdBreakdown.Transfer += 0
		st.res.ColdBreakdown.Worker += read
		st.res.ColdBreakdown.Setup += deser
		st.res.ColdBreakdown.Exec += build + exec
		st.coldN++
		st.S.After(deser+build+exec, func() { st.complete(sl, start) })
	})
}

// ---- L2: context on local disk ----

func (st *state) runL2(sl *slot, start float64) {
	app := st.cfg.App
	w := sl.w
	cold := !w.hasEnv
	st.ensureEnv(w, func() {
		scale := cpuScale(w.mach)
		deser := st.jitter(app.DeserializeSeconds * scale)
		build := st.jitter(app.BuildSeconds * scale)
		exec := st.execFor(sl)
		diskStart := st.S.Now()
		w.disk.Start(float64(app.LocalDiskBytes), func() {
			disk := st.S.Now() - diskStart
			st.S.After(deser+build+exec, func() {
				if cold {
					st.res.ColdBreakdown.Setup += deser
					st.res.ColdBreakdown.Exec += build + disk + exec
					st.coldN++
				} else {
					st.res.HotBreakdown.Transfer += st.fsArgTime()
					st.res.HotBreakdown.Setup += deser
					st.res.HotBreakdown.Exec += build + disk + exec
					st.hotN++
				}
				st.complete(sl, start)
			})
		})
	})
}

func (st *state) fsArgTime() float64 {
	return float64(st.cfg.App.ArgsBytes) / cluster.NIC10GbE
}

// ---- L3: context retained in library memory ----

func (st *state) runL3(sl *slot, start float64) {
	app := st.cfg.App
	w := sl.w
	st.ensureEnv(w, func() {
		if sl.libReady {
			st.invokeL3(sl, start)
			return
		}
		// Deploy the library on this slot: run the context setup once
		// (Table 5's L3 library overhead).
		setup := st.jitter(app.ContextSetupSeconds * cpuScale(w.mach))
		st.res.LibBreakdown.Setup += setup
		st.libN++
		st.S.After(setup, func() {
			st.markLibReady(w, sl)
			st.invokeL3(sl, start)
		})
	})
}

func (st *state) invokeL3(sl *slot, start float64) {
	app := st.cfg.App
	argLoad := app.ArgLoadSeconds
	exec := st.execFor(sl)
	st.res.InvBreakdown.Transfer += st.fsArgTime()
	st.res.InvBreakdown.Setup += argLoad
	st.res.InvBreakdown.Exec += exec
	st.invN++
	st.S.After(argLoad+exec, func() { st.complete(sl, start) })
}

// DebugStart initializes a run without executing it, returning the
// internal state and simulator for diagnostic stepping (cmd/probe).
func DebugStart(cfg Config) (*state, *event.Sim) {
	cfg.defaults()
	st := newState(cfg)
	st.startTenantArrivals()
	st.tryDispatch()
	return st, st.S
}

// DebugCompleted reports the completed-invocation count of a debug run.
func DebugCompleted(st *state) int { return st.completed }
