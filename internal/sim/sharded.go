package sim

import (
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/shardplane"
)

// ShardedReplay drives N independent Replay shards through the sharded
// dispatch plane's routing and shard-crossing rules, mirroring the
// manager's architecture (DESIGN.md §12) one layer up from the policy
// core:
//
//   - every worker lives in exactly one shard
//     (hashring.Partition(id, N), via shardplane.Router);
//   - tasks route to the shard owning their ring key, invocations
//     round-robin across shards with live workers;
//   - each shard runs its own coalesced wake loop (dirty mark +
//     scheduling flag), and the shard-crossing paths — overflow
//     forwarding, evacuation of workerless shards, starvation nudges —
//     run between local passes exactly as the manager's do.
//
// Each shard records its own decision trace; the differential harness
// (internal/manager) diffs them per shard against the sharded
// manager's, then as one merged trace (shardplane.MergeTraces).
type ShardedReplay struct {
	cfg    Config
	shards []*shardReplica
	router *shardplane.Router
	// nextID numbers specs globally — the manager's nextID counter, so
	// ring keys and round-robin routing agree across engines.
	nextID int
	// nextWorker numbers workers globally ("wNNNN"); a shard cannot
	// derive the ID from its own worker count.
	nextWorker int
	// workerShard maps each live worker to its home shard.
	workerShard map[string]int
	// plane is the submission plane (cfg.Tenants): one plane in front
	// of all shards, its own recorder — the manager's topology. Specs
	// released by the fair-share drain route to shard intake queues
	// exactly as the manager's drainLocked pushes them.
	plane *policy.TenantPlane[simSpec]
}

// shardReplica is one shard's replay plus its wake-loop state.
type shardReplica struct {
	rp *Replay
	// dirty and scheduling implement the manager's coalescing rule: a
	// wake arriving while the loop runs leaves its mark and returns;
	// the running loop observes it on the re-check.
	dirty      bool
	scheduling bool
	// intake mirrors the manager's lock-free submit intake: routed
	// specs queue here rather than going straight into the pending
	// queues, and the wake loop drains them (in submission order) at
	// the top of each pass — so the decision order stays byte-identical
	// to the manager's MPSC hand-off.
	intake []simSpec
	// starving mirrors the manager's starvation registry entry: queued
	// work survives a wake with nothing in flight locally, so only a
	// capacity event in another shard (nudge) can unblock it.
	starving bool
}

// drainIntake replays queued intake items into the shard's pending
// state, marking it dirty — the manager's drainIntakeLocked.
func (sh *shardReplica) drainIntake() {
	if len(sh.intake) == 0 {
		return
	}
	for _, it := range sh.intake {
		if it.isTask {
			sh.rp.pendq = append(sh.rp.pendq, it.task)
		} else {
			sh.rp.st.pending++
			if sh.rp.st.trackOwners {
				sh.rp.st.pushOwner(it.ref)
			}
		}
	}
	sh.intake = sh.intake[:0]
	sh.dirty = true
}

// NewShardedReplay builds an untimed sharded simulation. cfg.Workers
// initial workers join through the composite (global numbering);
// shards < 1 defaults to shardplane.DefaultShards.
func NewShardedReplay(cfg Config, shards int) *ShardedReplay {
	if shards < 1 {
		shards = shardplane.DefaultShards
	}
	workers := cfg.Workers
	cfg.Workers = 0
	sr := &ShardedReplay{
		cfg:         cfg,
		router:      shardplane.NewRouter(shards),
		workerShard: map[string]int{},
	}
	if len(cfg.Tenants) > 0 {
		sr.plane = policy.NewTenantPlane[simSpec](cfg.Tenants, &policy.Recorder{})
	}
	for i := 0; i < shards; i++ {
		scfg := cfg
		scfg.DecisionTrace = &policy.Recorder{}
		// The plane lives on the composite (the manager's topology);
		// shards only thread owner identity through their pools.
		scfg.Tenants = nil
		sh := &shardReplica{rp: NewReplay(scfg)}
		if sr.plane != nil {
			sh.rp.st.trackOwners = true
		}
		idx := i
		sh.rp.wakeFn = func() {
			sh.dirty = true
			sr.wake(idx)
		}
		sr.shards = append(sr.shards, sh)
	}
	for i := 0; i < workers; i++ {
		sr.AddWorker()
	}
	return sr
}

func (sr *ShardedReplay) lib() string { return sr.shards[0].rp.st.lib }

// wake runs shard i's coalesced schedule loop — the manager's
// shard.wake without the locking. A re-entrant call (a forward chain
// arriving back here) finds scheduling set, leaves its dirty mark, and
// returns; the running loop's re-check picks it up. Termination: hop
// counters only grow within a nudge epoch, so forward chains die out.
func (sr *ShardedReplay) wake(i int) {
	sh := sr.shards[i]
	if sh.scheduling {
		return
	}
	sh.scheduling = true
	r := sh.rp
	for {
		sh.drainIntake()
		if !sh.dirty {
			break
		}
		// Evacuation: a workerless shard can place nothing and no local
		// event will change that — its queues leave for live shards
		// before the pass snapshot. Routing cannot pick a workerless
		// shard, so this never cycles back here.
		if r.liveWorkers() == 0 && r.Pending() > 0 && sr.router.Live() > 0 {
			tasks, invs, refs := r.extractPending()
			sr.forwardEvacuated(tasks, invs, refs)
			continue
		}
		sh.dirty = false
		if sr.cfg.Level == core.L3 {
			// Invocation pools never overflow-forward on saturation
			// (only the static no-worker-ever-fits rule moves them, and
			// a one-slot instance fits any live worker; the workerless
			// case evacuated above). The local pass is the whole pass.
			r.drainPass()
			continue
		}
		next, hasNext := sr.router.NextAlive(i)
		if forward := r.drainTasksSharded(hasNext, len(sr.shards)); len(forward) > 0 {
			sr.forwardTasksTo(next, forward)
		}
	}
	sh.starving = r.Pending() > 0 && r.quiet()
	sh.scheduling = false
}

// routeTask delivers a task to the shard owning its ring key — or, in
// an empty cluster, parks it in the key's home shard (shardplane
// routing rules, shared verbatim with the manager). Like the
// manager's routeTask, the spec goes through the shard's intake queue
// and the wake loop moves it into the pending queue.
func (sr *ShardedReplay) routeTask(pt replayTask) {
	idx := sr.router.Owner(pt.key)
	sh := sr.shards[idx]
	sh.intake = append(sh.intake, simSpec{isTask: true, task: pt})
	sr.wake(idx)
}

// routeInv delivers one invocation to a live shard by round-robin over
// its spec ID, parking in the library's home shard when no worker is
// live anywhere. Intake hand-off, like routeTask.
func (sr *ShardedReplay) routeInv(ref specRef) {
	idx := sr.router.RouteSpec(ref.id, sr.lib())
	sh := sr.shards[idx]
	sh.intake = append(sh.intake, simSpec{ref: ref})
	sr.wake(idx)
}

// forwardTasksTo moves overflow tasks into a target shard's queue and
// wakes it — the manager's forwardTasksTo.
func (sr *ShardedReplay) forwardTasksTo(idx int, tasks []replayTask) {
	sh := sr.shards[idx]
	sh.rp.pendq = append(sh.rp.pendq, tasks...)
	sh.dirty = true
	sr.wake(idx)
}

// forwardEvacuated re-routes an evacuated shard's specs: tasks
// individually by ring key (hop counts preserved), the invocation pool
// whole — count and owner FIFO, in order — to the library's owner
// shard, the manager's forwardEvacuated.
func (sr *ShardedReplay) forwardEvacuated(tasks []replayTask, invs int, refs []specRef) {
	for _, pt := range tasks {
		sr.routeTask(pt)
	}
	if invs > 0 {
		idx := sr.router.Owner(sr.lib())
		sh := sr.shards[idx]
		sh.rp.st.pending += invs
		for _, ref := range refs {
			sh.rp.st.pushOwner(ref)
		}
		sh.dirty = true
		sr.wake(idx)
	}
}

// wakeParked nudges every workerless shard holding queued specs after
// a join: its wake loop evacuates them to live shards.
func (sr *ShardedReplay) wakeParked() {
	for i, sh := range sr.shards {
		if sh.rp.liveWorkers() == 0 && sh.rp.Pending() > 0 {
			sh.dirty = true
			sr.wake(i)
		}
	}
}

// nudgeStarving wakes every starving shard after a capacity-freeing
// event anywhere, resetting overflow hop budgets so rested work
// circulates again. The starving set is snapshotted first (the
// manager's rule), then drained in shard-index order — the manager's
// map order is unordered but its wakes commute.
func (sr *ShardedReplay) nudgeStarving() {
	var idxs []int
	for i, sh := range sr.shards {
		if sh.starving {
			idxs = append(idxs, i)
		}
	}
	for _, i := range idxs {
		sh := sr.shards[i]
		for j := range sh.rp.pendq {
			sh.rp.pendq[j].hops = 0
		}
		sh.dirty = true
		sr.wake(i)
	}
}

// shardOf returns the live worker's shard replica, nil if unknown.
func (sr *ShardedReplay) shardOf(workerID string) *shardReplica {
	if idx, ok := sr.workerShard[workerID]; ok {
		return sr.shards[idx]
	}
	return nil
}

// ---- the Replay-shaped event surface ----

// Submit enqueues n specs, routing each like the manager's Submit /
// SubmitInvocation, and schedules as much as possible.
func (sr *ShardedReplay) Submit(n int) {
	for k := 0; k < n; k++ {
		sr.nextID++
		if sr.cfg.Level == core.L3 {
			sr.routeInv(specRef{id: int64(sr.nextID)})
		} else {
			sr.routeTask(replayTask{key: "task-" + strconv.Itoa(sr.nextID)})
		}
	}
}

// SubmitTenant submits one spec for tenant through the submission
// plane — the manager's Submit/SubmitInvocation with a TenantID:
// admission, plane queue, fair-share drain into shard intake.
// Unregistered tenants degrade to the direct routing path.
func (sr *ShardedReplay) SubmitTenant(tenant string) {
	sr.nextID++
	isTask := sr.cfg.Level != core.L3
	var it simSpec
	if isTask {
		it = simSpec{isTask: true, task: replayTask{key: "task-" + strconv.Itoa(sr.nextID), tenant: tenant}}
	} else {
		it = simSpec{ref: specRef{id: int64(sr.nextID), tenant: tenant}}
	}
	if sr.plane != nil {
		if t, d := sr.plane.Admit(tenant, it); t != nil {
			if d.Verdict != policy.AdmitShed {
				sr.drainPlane()
			}
			return
		}
	}
	if isTask {
		sr.routeTask(it.task)
	} else {
		sr.routeInv(it.ref)
	}
}

// drainPlane releases plane-queued specs in fair-share order into
// shard intake queues and wakes the fed shards in first-touched order
// — the manager's drainLocked + wakeShards. Invocations route by the
// tenant's own cursor (Router.RouteSpecTenant); tasks keep ring-key
// locality.
func (sr *ShardedReplay) drainPlane() {
	if sr.plane == nil {
		return
	}
	var wakes []int
	sr.plane.Drain(func(it simSpec, tenant string, seq int64) {
		var idx int
		if it.isTask {
			idx = sr.router.Owner(it.task.key)
		} else {
			idx = sr.router.RouteSpecTenant(tenant, seq, sr.lib())
		}
		sr.shards[idx].intake = append(sr.shards[idx].intake, it)
		if !slices.Contains(wakes, idx) {
			wakes = append(wakes, idx)
		}
	})
	for _, idx := range wakes {
		sr.wake(idx)
	}
}

// AddWorker joins a fresh worker in its home shard — the manager's
// adoptWorker order: register, route, wake the shard, then evacuate
// parked work and reset starving shards' hop budgets.
func (sr *ShardedReplay) AddWorker() string {
	id := "w" + pad4(sr.nextWorker)
	sr.nextWorker++
	idx := sr.router.ShardOf(id)
	sh := sr.shards[idx]
	sh.rp.st.addWorkerNamed(id)
	sr.workerShard[id] = idx
	sr.router.Add(id)
	sh.dirty = true
	sr.wake(idx)
	sr.wakeParked()
	sr.nudgeStarving()
	return id
}

// KillWorker removes worker id — the manager's onWorkerGone order:
// membership first (forward targets and ring ownership move), then the
// owning shard's surgery and requeue, then the membership-change nudge.
func (sr *ShardedReplay) KillWorker(id string) bool {
	sh := sr.shardOf(id)
	if sh == nil {
		return false
	}
	sr.router.Remove(id)
	delete(sr.workerShard, id)
	ok := sh.rp.KillWorker(id)
	sr.nudgeStarving()
	return ok
}

// EnvArrived delivers the environment on worker id (its shard's
// FileAck). File acks free no invocation capacity, so no nudge.
func (sr *ShardedReplay) EnvArrived(id string) bool {
	sh := sr.shardOf(id)
	return sh != nil && sh.rp.EnvArrived(id)
}

// EnvFailed fails worker id's in-flight peer environment fetch.
func (sr *ShardedReplay) EnvFailed(id string) bool {
	sh := sr.shardOf(id)
	return sh != nil && sh.rp.EnvFailed(id)
}

// LibReady marks the oldest deploy-bound slot on worker id ready. A
// new ready instance is capacity starving shards may be waiting for.
func (sr *ShardedReplay) LibReady(id string) bool {
	sh := sr.shardOf(id)
	if sh == nil || !sh.rp.LibReady(id) {
		return false
	}
	sr.nudgeStarving()
	return true
}

// Complete finishes one running invocation on worker id. Freed
// capacity is a shard-crossing signal (the manager's onResult nudge);
// in tenant runs the completion also returns the spec's quota unit to
// the composite plane and drains whatever it unblocks.
func (sr *ShardedReplay) Complete(id string) bool {
	sh := sr.shardOf(id)
	if sh == nil {
		return false
	}
	tenant, ok := sh.rp.completeOne(id)
	if !ok {
		return false
	}
	if sr.plane != nil && sr.plane.Release(tenant) {
		sr.drainPlane()
	}
	sr.nudgeStarving()
	return true
}

// CompleteTask finishes the task bound to ring key key on worker id.
func (sr *ShardedReplay) CompleteTask(id, key string) bool {
	sh := sr.shardOf(id)
	if sh == nil {
		return false
	}
	tenant, ok := sh.rp.completeTaskOne(id, key, nil)
	if !ok {
		return false
	}
	if sr.plane != nil && sr.plane.Release(tenant) {
		sr.drainPlane()
	}
	sr.nudgeStarving()
	return true
}

// Fail fails the task bound to ring key key on worker id retryably;
// the requeue stays shard-local, the manager's requeueAfter rule.
func (sr *ShardedReplay) Fail(id, key string) bool {
	sh := sr.shardOf(id)
	if sh == nil || !sh.rp.Fail(id, key) {
		return false
	}
	sr.nudgeStarving()
	return true
}

// Pending reports specs submitted but not yet placed, over all shards.
func (sr *ShardedReplay) Pending() int {
	n := 0
	for _, sh := range sr.shards {
		n += sh.rp.Pending()
	}
	return n
}

// ShardDecisions returns each shard's decision trace.
func (sr *ShardedReplay) ShardDecisions() [][]string {
	out := make([][]string, len(sr.shards))
	for i, sh := range sr.shards {
		out[i] = sh.rp.Decisions()
	}
	return out
}

// PlaneDecisions returns the submission plane's recorded trace — a
// separate stream from the shard traces, as in the manager.
func (sr *ShardedReplay) PlaneDecisions() []string { return sr.plane.Decisions() }

// Decisions returns the per-shard traces merged by the deterministic
// rule (concatenation in shard-index order), prefixed by the plane
// trace when the submission plane is on — Manager.MergedDecisions.
func (sr *ShardedReplay) Decisions() []string {
	merged := shardplane.MergeTraces(sr.ShardDecisions())
	if plane := sr.PlaneDecisions(); len(plane) > 0 {
		return append(append([]string(nil), plane...), merged...)
	}
	return merged
}

// Dump renders the merged decision trace (diagnostics).
func (sr *ShardedReplay) Dump() string {
	s := ""
	for _, line := range sr.Decisions() {
		s += line + "\n"
	}
	return s
}

// ViewFor returns worker id's view entry in its owning shard, nil if
// the worker is not live.
func (sr *ShardedReplay) ViewFor(id string) *policy.WorkerView {
	if sh := sr.shardOf(id); sh != nil {
		return sh.rp.ViewFor(id)
	}
	return nil
}
