package sim

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/policy"
)

// Replay drives the simulator's scheduling state machine from an
// explicit event sequence instead of the virtual clock. Placement,
// staging and deploy decisions still come from the shared policy core
// against the live ClusterView; what Replay removes is time — the
// caller says when transfers land (or fail), libraries come up,
// workers join and die, and invocations finish. The differential
// harness (internal/manager) feeds one random event trace through a
// Replay and through the real manager and diffs their decision
// recorders line for line.
type Replay struct {
	st *state
	// pendq is the keyed pending-task queue (task workloads): ring
	// keys are assigned at submission — mirroring the manager, which
	// assigns task IDs in Submit — and requeued verbatim on worker
	// death or retryable failure, carrying the failed worker as the
	// avoid preference. Invocation workloads keep the plain counter
	// (st.pending): invocations of one library are interchangeable.
	pendq   []replayTask
	nextKey int
	// wakeFn, when set, replaces the internal drain: the sharded
	// composite (ShardedReplay) installs its own coalesced wake loop
	// here so the shard-crossing paths — overflow forwarding,
	// evacuation, starvation nudges — run between local passes.
	wakeFn func()
	// plane is the submission plane (cfg.Tenants, single-shard runs):
	// specs submitted via the *Tenant entry points pass admission
	// control and drain in fair-share order through the same
	// policy.TenantPlane the manager drives. It records into its own
	// recorder — the manager's plane trace is a separate stream from
	// the shard traces. The sharded composite keeps its plane on
	// ShardedReplay instead.
	plane *policy.TenantPlane[simSpec]
}

type replayTask struct {
	key   string
	avoid string
	// hops counts overflow forwards (sharded replay only): once a task
	// has visited every shard without placing it rests until a
	// membership change or starvation nudge resets the budget — the
	// manager's pendingTask.hops.
	hops int
	// tenant names the submitting tenant (requeued verbatim, like the
	// manager's pendingTask.t.TenantID) so completions release the
	// right quota.
	tenant string
	// refs are proxy-object input IDs (§15): the task's inputs are the
	// environment plus one RefSpec per entry, resolved through the ref
	// mirror at stage execution. Requeued verbatim, like the manager
	// requeueing the task spec whose Inputs carry the refs.
	refs []string
}

// NewReplay builds an untimed simulation. cfg.Invocations is ignored
// (work arrives via Submit); cfg.DecisionTrace defaults to a fresh
// unbounded recorder.
func NewReplay(cfg Config) *Replay {
	cfg.defaults()
	cfg.Invocations = 0
	if cfg.DecisionTrace == nil {
		cfg.DecisionTrace = &policy.Recorder{}
	}
	st := newState(cfg)
	st.replay = true
	st.refs = newSimRefs(cfg.RefOwnedBytesCap)
	r := &Replay{st: st}
	if len(cfg.Tenants) > 0 {
		r.plane = policy.NewTenantPlane[simSpec](cfg.Tenants, &policy.Recorder{})
		st.trackOwners = true
	}
	return r
}

// drain runs one schedule pass — the untimed equivalent of the
// manager's coalesced wake. With a wakeFn installed (sharded replay)
// the composite's wake loop runs instead, so forwarding and
// evacuation happen between local passes.
func (r *Replay) drain() {
	if r.wakeFn != nil {
		r.wakeFn()
		return
	}
	r.drainPass()
}

// drainPass runs one local schedule pass, with no shard-crossing
// paths.
func (r *Replay) drainPass() {
	if r.st.cfg.Level == core.L3 {
		r.drainInvs()
		return
	}
	r.drainTasks()
}

// drainInvs places pending invocations until the policy core reports
// no placement is possible — scheduleLibQueueLocked's skip-and-stop
// pass (every queued invocation of the one library would hit the same
// cluster state, so the first failure ends the pass).
func (r *Replay) drainInvs() {
	if r.st.cfg.Batched {
		r.drainInvsBatched()
		return
	}
	for r.st.pending > 0 {
		if r.st.place() == nil {
			return
		}
	}
}

// drainInvsBatched is the same pass through the batched entry point
// the sharded manager uses: one PlaceReadyBatchInto call covers the
// whole pool (its overlay stops exactly where sequential execution
// would), and the remainder tries deploys one at a time — an instance
// deployed mid-pass is not Ready until its ack, so no ready capacity
// can appear between the batch and the deploys.
func (r *Replay) drainInvsBatched() {
	st := r.st
	if st.pending == 0 {
		return
	}
	for _, d := range st.view.PlaceReadyBatchInto(nil, st.lib, st.pending, nil) {
		st.execReady(d)
	}
	for st.pending > 0 {
		if st.tryDeploy() == nil {
			return
		}
	}
}

// drainTasks runs one skip-and-continue pass over the keyed queue —
// the manager's scheduleTasksLocked: a task that cannot place is
// skipped in place, later tasks still get their try, and queue order
// is preserved. Skip-and-continue matters once requeues make the
// queue heterogeneous (different keys, different avoid preferences).
func (r *Replay) drainTasks() {
	if r.st.cfg.Batched {
		r.drainTasksBatched()
		return
	}
	remaining := r.pendq[:0]
	for _, pt := range r.pendq {
		if placed, _ := r.placeKeyed(pt); !placed {
			remaining = append(remaining, pt)
		}
	}
	r.pendq = remaining
}

// drainTasksBatched plans the whole keyed queue in one
// PlanTaskBatchInto call and executes the returned placements in
// order. The batch contract is strict sequential equivalence, so the
// decision trace is identical to drainTasks's plan-one/execute-one
// loop — the batched-vs-unbatched differential test (batched_test.go)
// proves it.
func (r *Replay) drainTasksBatched() {
	st := r.st
	if len(r.pendq) == 0 {
		return
	}
	decisions := st.view.PlanTaskBatchInto(nil, r.taskReqs(), st.stackFilter())
	remaining := r.pendq[:0]
	for i, pt := range r.pendq {
		if decisions[i].Worker == nil {
			remaining = append(remaining, pt)
			continue
		}
		r.execKeyed(pt, decisions[i])
	}
	r.pendq = remaining
}

// taskReqs renders the pending queue as a batch-planning request list.
func (r *Replay) taskReqs() []policy.TaskReq {
	reqs := make([]policy.TaskReq, len(r.pendq))
	for i, pt := range r.pendq {
		reqs[i] = policy.TaskReq{Key: pt.key, Res: oneSlot, Inputs: r.taskInputs(pt), Avoid: pt.avoid, Tenant: pt.tenant}
	}
	return reqs
}

// taskInputs builds one task's input specs: the environment (L2/L3)
// plus a RefSpec per proxy-object input, rebuilt from the ref catalog
// so both engines plan over identical bindings.
func (r *Replay) taskInputs(pt replayTask) []core.FileSpec {
	st := r.st
	var inputs []core.FileSpec
	if st.cfg.Level != core.L1 {
		inputs = append(inputs, st.envSpec)
	}
	for _, id := range pt.refs {
		inputs = append(inputs, st.refs.spec(id))
	}
	return inputs
}

// placeKeyed attempts one keyed task placement, mirroring the
// manager's task pass: first excluding the avoid worker, then
// anywhere — the avoided worker beats starving. blocked reports a
// placement refused only because first copies are in flight (the
// manager keeps those local; they never overflow-forward).
func (r *Replay) placeKeyed(pt replayTask) (placed, blocked bool) {
	st := r.st
	inputs := r.taskInputs(pt)
	base := st.stackFilter()
	d := st.view.PlanTask(pt.key, oneSlot, inputs, policy.AndFilters(policy.Excluding(pt.avoid), base))
	if d.Worker == nil && pt.avoid != "" {
		d = st.view.PlanTask(pt.key, oneSlot, inputs, base)
	}
	if d.Worker == nil {
		return false, len(d.Blocked) > 0
	}
	r.execKeyed(pt, d)
	return true, false
}

// execKeyed carries out one planned keyed placement: trace, staging,
// slot binding.
func (r *Replay) execKeyed(pt replayTask, d policy.PlaceTask) {
	st := r.st
	w := st.byID[d.Worker.ID]
	if st.rec != nil {
		st.rec.Record(policy.TraceTask(pt.key, d))
	}
	for _, sf := range d.Stages {
		st.execStage(sf)
	}
	sl := w.firstFree(false)
	st.takeSlot(w, sl)
	sl.invIdx = st.nextInv
	st.nextInv++
	sl.key = pt.key
	sl.refs = pt.refs
	sl.owner, sl.tenant = int64(taskKeyNum(pt.key)), pt.tenant
}

// ---- sharded-replay hooks (ShardedReplay) ----

// drainTasksSharded runs the sharded manager's task pass for one
// composite shard: statically ineligible tasks hop to the next live
// shard before planning (the avoid fallback would otherwise pin them
// to the avoided worker forever), planner failures hop only while the
// shard is quiet — no local event will ever free capacity — and within
// the hop budget. Returns the tasks to forward.
func (r *Replay) drainTasksSharded(hasNext bool, maxHops int) (forward []replayTask) {
	if len(r.pendq) == 0 {
		return nil
	}
	if hasNext {
		keep := r.pendq[:0]
		for _, pt := range r.pendq {
			if pt.hops < maxHops && !r.anyEligible(pt.avoid) {
				pt.hops++
				forward = append(forward, pt)
				continue
			}
			keep = append(keep, pt)
		}
		r.pendq = keep
		if len(r.pendq) == 0 {
			return forward
		}
	}
	// Batched mode plans the whole queue up front (the manager's
	// PlanTaskBatchInto call); unbatched plans each task against the
	// executed state of its predecessors. Sequential equivalence makes
	// the decision streams identical, and quiet() is evaluated at the
	// same point either way: during execution, after every earlier
	// placement in the pass has landed.
	var decisions []policy.PlaceTask
	if r.st.cfg.Batched {
		decisions = r.st.view.PlanTaskBatchInto(nil, r.taskReqs(), r.st.stackFilter())
	}
	remaining := r.pendq[:0]
	for i, pt := range r.pendq {
		var placed, blocked bool
		if decisions != nil {
			if d := decisions[i]; d.Worker != nil {
				r.execKeyed(pt, d)
				placed = true
			} else {
				blocked = len(d.Blocked) > 0
			}
		} else {
			placed, blocked = r.placeKeyed(pt)
		}
		if placed {
			continue
		}
		if !blocked && hasNext && pt.hops < maxHops && r.quiet() {
			pt.hops++
			forward = append(forward, pt)
			continue
		}
		remaining = append(remaining, pt)
	}
	r.pendq = remaining
	return forward
}

// quiet is the manager's quietLocked: no local event is pending that
// could change this shard's placement state — nothing dispatched
// (busy slots double as the inflight table), no copies awaiting acks.
func (r *Replay) quiet() bool {
	if len(r.st.view.PendingCopies) > 0 {
		return false
	}
	for _, w := range r.st.workers {
		if !w.dead && w.busySlots > 0 {
			return false
		}
	}
	return true
}

// anyEligible is the manager's anyEligibleWorkerLocked: some live
// non-avoided worker is large enough to ever hold a one-slot task.
// The append-only worker slice gives a deterministic scan (the
// manager's map scan is an existence check, so order is immaterial
// there too).
func (r *Replay) anyEligible(avoid string) bool {
	for _, w := range r.st.workers {
		if !w.dead && w.id != avoid && oneSlot.Fits(w.v.Total) {
			return true
		}
	}
	return false
}

// extractPending removes and returns every queued spec so the sharded
// composite can evacuate a workerless shard — extractPendingLocked.
// refs carries the invocation pool's owner FIFO (tenant runs): a
// workerless shard holds no claimed installs, so the FIFO and the pool
// move whole, in order.
func (r *Replay) extractPending() (tasks []replayTask, invs int, refs []specRef) {
	tasks = r.pendq
	r.pendq = nil
	invs = r.st.pending
	r.st.pending = 0
	if r.st.trackOwners {
		refs = append(refs, r.st.queuedOwners()...)
		r.st.owners, r.st.ownersHead = nil, 0
	}
	return tasks, invs, refs
}

// liveWorkers reports how many live workers this replay holds.
func (r *Replay) liveWorkers() int { return len(r.st.byID) }

func taskKeyNum(k string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(k, "task-"))
	return n
}

// Submit enqueues n invocations and schedules as many as possible.
// nextKey is the replay's spec counter — the manager's nextID, shared
// by tasks and invocations — so ring keys, owner IDs, and routing
// agree across engines whatever the submission mix.
func (r *Replay) Submit(n int) {
	if r.st.cfg.Level == core.L3 {
		for i := 0; i < n; i++ {
			r.nextKey++
			r.st.pending++
			if r.st.trackOwners {
				r.st.pushOwner(specRef{id: int64(r.nextKey)})
			}
		}
	} else {
		for i := 0; i < n; i++ {
			r.nextKey++
			r.pendq = append(r.pendq, replayTask{key: "task-" + strconv.Itoa(r.nextKey)})
		}
	}
	r.drain()
}

// SubmitTaskRefs enqueues one task consuming the given proxy-object
// results (inputs: environment + one RefSpec per ID) and schedules it
// if possible — the manager's Submit of a TaskSpec whose Inputs carry
// core.RefSpec bindings. The refs must already exist in the catalog
// (created by earlier CompleteTaskRef calls).
func (r *Replay) SubmitTaskRefs(refs ...string) {
	r.nextKey++
	r.pendq = append(r.pendq, replayTask{key: "task-" + strconv.Itoa(r.nextKey), refs: refs})
	r.drain()
}

// RefArrived confirms a consumer's ref fetch on worker id (the
// FileAck{Ok:true, Cache:true}): the in-flight copy becomes a view
// replica and the consumer registers as a holder in the ref catalog.
// Returns false if no ref copy is in flight there.
func (r *Replay) RefArrived(id, refID string) bool {
	st := r.st
	w := st.byID[id]
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	st.view.ClearPending(w.v, refID)
	st.view.NoteReplica(w.v, refID)
	st.refs.tab.AddRefHolder(id, refID)
	r.drain()
	return true
}

// RefFailed fails a consumer's in-flight ref fetch on worker id (the
// FileAck{Ok:false} path): the manager retracts every non-owner holder
// — the walk just proved the replica records unreliable — and plans a
// fresh traced resolve against what survives. Returns false if no ref
// copy is in flight there.
func (r *Replay) RefFailed(id, refID string) bool {
	st := r.st
	w := st.byID[id]
	if w == nil || !w.v.Pending[refID] {
		return false
	}
	st.view.ClearPending(w.v, refID)
	st.refs.restage(st, w, refID)
	r.drain()
	return true
}

// RefDecisions returns the ref mirror's recorded decision stream — the
// global trace diffed against Manager.RefDecisions.
func (r *Replay) RefDecisions() []string { return r.st.refs.decisions() }

// SubmitTenant submits one spec for tenant — the manager's
// Submit/SubmitInvocation with a TenantID: admission control, then the
// fair-share drain releases whatever became eligible. L3 runs submit
// an invocation, task runs a keyed task whose ring key comes from the
// shared spec counter (the manager derives it from the spec ID).
// Unregistered tenants degrade to the direct single-tenant path.
func (r *Replay) SubmitTenant(tenant string) {
	r.nextKey++
	var it simSpec
	if r.st.cfg.Level == core.L3 {
		it = simSpec{ref: specRef{id: int64(r.nextKey), tenant: tenant}}
	} else {
		it = simSpec{isTask: true, task: replayTask{key: "task-" + strconv.Itoa(r.nextKey), tenant: tenant}}
	}
	if r.plane != nil {
		if t, d := r.plane.Admit(tenant, it); t != nil {
			if d.Verdict != policy.AdmitShed && r.drainPlane() > 0 {
				r.drain()
			}
			return
		}
	}
	if it.isTask {
		r.pendq = append(r.pendq, it.task)
	} else {
		r.st.pending++
		if r.st.trackOwners {
			r.st.pushOwner(it.ref)
		}
	}
	r.drain()
}

// drainPlane moves fair-share-released specs into this replay's local
// queues (single-shard runs; the sharded composite routes instead).
// Returns the release count; callers drain the engine only when it is
// nonzero, mirroring the manager waking shards only for fed intake.
func (r *Replay) drainPlane() int {
	if r.plane == nil {
		return 0
	}
	return r.plane.Drain(func(it simSpec, tenant string, seq int64) {
		if it.isTask {
			r.pendq = append(r.pendq, it.task)
			return
		}
		r.st.pending++
		r.st.pushOwner(it.ref)
	})
}

// finishRelease returns the completed spec's quota unit and schedules
// whatever the release unblocks (single-shard runs).
func (r *Replay) finishRelease(tenant string) {
	if r.plane != nil && r.plane.Release(tenant) && r.drainPlane() > 0 {
		r.drain()
	}
}

// PlaneDecisions returns the submission plane's recorded trace — a
// separate stream from the shard trace, as in the manager.
func (r *Replay) PlaneDecisions() []string { return r.plane.Decisions() }

// EnvArrived delivers the environment tarball on worker id (the
// FileAck): the in-flight copy becomes a replica, the serving slot is
// released, and the environment is immediately usable. Returns false
// if no copy was in flight there.
func (r *Replay) EnvArrived(id string) bool {
	w := r.st.byID[id]
	if w == nil || w.hasEnv || !w.v.Pending[r.st.envObj] {
		return false
	}
	r.st.envLanded(w)
	w.hasEnv = true
	r.drain()
	return true
}

// EnvFailed fails worker id's in-flight *peer* environment fetch (the
// FileAck{Ok:false} path): the source's transfer slot comes back (if
// the source is still alive), the in-flight copy is cleared, and —
// mirroring the manager's recovery — the copy is immediately restaged
// over the manager's own link. Recovery bypasses the policy core on
// both engines, so no decision is traced. Returns false if no peer
// fetch is in flight there (failed direct sends are never restaged).
func (r *Replay) EnvFailed(id string) bool {
	st := r.st
	w := st.byID[id]
	if w == nil || w.hasEnv || !w.v.Pending[st.envObj] || w.envSrc == nil {
		return false
	}
	src := w.envSrc
	w.envSrc = nil
	if !src.dead && src.v.TransfersOut > 0 {
		src.v.TransfersOut--
	}
	st.view.ClearPending(w.v, st.envObj)
	st.view.NotePending(w.v, st.envObj)
	st.view.ManagerSends++
	st.res.EnvDirect++
	r.drain()
	return true
}

// AddWorker joins a fresh worker mid-run (the manager registering a
// new connection), continuing the wNNNN numbering — dead IDs are never
// reused — and schedules anything the new capacity unblocks. Returns
// the new worker's ID.
func (r *Replay) AddWorker() string {
	w := r.st.addWorker()
	r.drain()
	return w.id
}

// KillWorker removes worker id mid-run — the manager's onWorkerGone:
// the source serving its inbound fetch gets its transfer slot back,
// the view drops its replicas, in-flight copies, instances and ring
// position, and everything bound to its slots requeues in ascending
// spec order with the dead worker as the avoid preference. Transfers
// the dead worker was *serving* are not failed here; the caller fails
// each stranded destination via EnvFailed, exactly as the real
// destinations' own failing FileAcks would arrive later.
func (r *Replay) KillWorker(id string) bool {
	st := r.st
	w := st.byID[id]
	if w == nil {
		return false
	}
	// Re-home every ref the dead worker owned before its queue
	// teardown — the manager calls refPlane.rehome before taking the
	// shard lock. Trace-silent when the worker owned nothing.
	st.refs.rehome(id)
	if src := w.envSrc; src != nil {
		w.envSrc = nil
		if !src.dead && src.v.TransfersOut > 0 {
			src.v.TransfersOut--
		}
	} else if w.v.Pending[st.envObj] && st.view.ManagerSends > 0 {
		st.view.ManagerSends--
	}
	st.view.RemoveWorker(w.v)
	delete(st.byID, id)
	w.dead = true
	if st.cfg.Level == core.L3 {
		// Bound invocations — dispatched or riding a deploy — go back
		// to the interchangeable pending pool, matching the manager's
		// requeue of its inflight plus the released install claim. In
		// tenant runs, dispatched (libReady) slots re-enter the owner
		// FIFO tail in ascending spec order — the manager requeues its
		// inflight sorted by ID — while a riding deploy's claim keeps
		// its original FIFO position (the owner was never popped).
		var refs []specRef
		for _, sl := range w.slots {
			if sl.busy {
				if st.trackOwners && sl.libReady {
					refs = append(refs, specRef{id: sl.owner, tenant: sl.tenant})
				}
				sl.busy = false
				sl.owner, sl.tenant = 0, ""
				st.pending++
			}
		}
		sort.Slice(refs, func(i, j int) bool { return refs[i].id < refs[j].id })
		for _, ref := range refs {
			st.pushOwner(ref)
		}
	} else {
		var requeue []replayTask
		for _, sl := range w.slots {
			if sl.busy {
				sl.busy = false
				requeue = append(requeue, replayTask{key: sl.key, avoid: id, tenant: sl.tenant, refs: sl.refs})
				sl.key = ""
				sl.refs = nil
				sl.owner, sl.tenant = 0, ""
			}
		}
		sort.Slice(requeue, func(i, j int) bool { return taskKeyNum(requeue[i].key) < taskKeyNum(requeue[j].key) })
		r.pendq = append(r.pendq, requeue...)
	}
	r.drain()
	return true
}

// LibReady marks the oldest deploy-bound slot on worker id ready (the
// LibraryAck), which places the invocation bound to it. Returns false
// if the worker has no deploy in progress or its environment has not
// arrived.
func (r *Replay) LibReady(id string) bool {
	w := r.st.byID[id]
	if w == nil || !w.hasEnv {
		return false
	}
	for _, sl := range w.slots {
		if sl.busy && !sl.libReady {
			r.st.markLibReady(w, sl)
			r.drain()
			return true
		}
	}
	return false
}

// Complete finishes one running invocation on worker id, freeing its
// slot and scheduling whatever the freed capacity unblocks. Returns
// false if nothing on the worker is in a completable state. Task
// workloads under churn should use CompleteTask: requeues carry ring
// keys, so the engines must agree on which task each slot was running.
func (r *Replay) Complete(id string) bool {
	tenant, ok := r.completeOne(id)
	if !ok {
		return false
	}
	r.finishRelease(tenant)
	return true
}

// completeOne frees one completable slot — in tenant runs the one with
// the lowest owner, because the differential harness completes the
// manager's lowest in-flight spec ID on that worker — runs the local
// drain, and returns the released tenant. The quota release itself is
// the caller's: single-shard runs release into r.plane, the sharded
// composite into its own plane.
func (r *Replay) completeOne(id string) (string, bool) {
	st := r.st
	w := st.byID[id]
	if w == nil || !w.hasEnv {
		return "", false
	}
	needLib := st.cfg.Level == core.L3
	var pick *slot
	for _, sl := range w.slots {
		if !sl.busy || (needLib && !sl.libReady) {
			continue
		}
		if !st.trackOwners {
			pick = sl
			break
		}
		if pick == nil || sl.owner < pick.owner {
			pick = sl
		}
	}
	if pick == nil {
		return "", false
	}
	tenant := pick.tenant
	st.freeSlot(w, pick)
	pick.served++
	pick.key = ""
	pick.owner, pick.tenant = 0, ""
	r.drain()
	return tenant, true
}

// CompleteTask finishes the task bound to ring key key on worker id.
func (r *Replay) CompleteTask(id, key string) bool {
	tenant, ok := r.completeTaskOne(id, key, nil)
	if !ok {
		return false
	}
	r.finishRelease(tenant)
	return true
}

// CompleteTaskRef finishes the task bound to ring key key on worker id
// with a pass-by-reference result — the manager's onResult for a
// Result carrying an ObjectRef: the producing worker becomes the ref's
// owner and holder of record, and the catalog (not the manager's wire)
// carries the object from then on.
func (r *Replay) CompleteTaskRef(id, key string, ref core.ObjectRef) bool {
	tenant, ok := r.completeTaskOne(id, key, &ref)
	if !ok {
		return false
	}
	r.finishRelease(tenant)
	return true
}

// completeTaskOne is completeOne addressed by ring key. ref, when
// non-nil, is a by-ref result: the ownership transfer lands in the ref
// catalog before the freed slot's schedule pass, exactly where the
// manager's onResult hook runs.
func (r *Replay) completeTaskOne(id, key string, ref *core.ObjectRef) (string, bool) {
	st := r.st
	w := st.byID[id]
	if w == nil || !w.hasEnv {
		return "", false
	}
	for _, sl := range w.slots {
		if sl.busy && sl.key == key {
			tenant := sl.tenant
			if ref != nil {
				st.refs.result(id, *ref)
			}
			st.freeSlot(w, sl)
			st.noteRefInputs(w, sl)
			sl.served++
			sl.key = ""
			sl.refs = nil
			sl.owner, sl.tenant = 0, ""
			r.drain()
			return tenant, true
		}
	}
	return "", false
}

// noteRefInputs mirrors the manager's onResult replica notes for a
// finished task's cacheable inputs: the bytes are resident on the
// worker whatever the task's outcome. The environment's note is always
// a dedup no-op (its ack gated the completion), so only the
// proxy-object inputs are recorded — including a lost ref that never
// staged, which becomes the same (vacuous) view replica on both
// engines.
func (st *state) noteRefInputs(w *wstate, sl *slot) {
	for _, id := range sl.refs {
		st.view.NoteReplica(w.v, id)
	}
}

// Fail fails the task bound to ring key key on worker id retryably —
// the manager's Retryable-result path: the slot frees and the key
// requeues at the back of the queue with this worker as the avoid
// preference (the retry prefers any other placement, falling back to
// the avoided worker over starving).
func (r *Replay) Fail(id, key string) bool {
	st := r.st
	w := st.byID[id]
	if w == nil || !w.hasEnv {
		return false
	}
	for _, sl := range w.slots {
		if sl.busy && sl.key == key {
			tenant := sl.tenant
			refs := sl.refs
			st.freeSlot(w, sl)
			st.noteRefInputs(w, sl)
			sl.key = ""
			sl.refs = nil
			sl.owner, sl.tenant = 0, ""
			// A retry holds its quota unit — the manager releases only on
			// final delivery — so the requeue carries the tenant, no release.
			r.pendq = append(r.pendq, replayTask{key: key, avoid: id, tenant: tenant, refs: refs})
			r.drain()
			return true
		}
	}
	return false
}

// Pending reports invocations submitted but not yet placed.
func (r *Replay) Pending() int { return r.st.pending + len(r.pendq) }

// Decisions returns the decision trace recorded so far, prefixed by
// the ref mirror's stream and the submission plane's trace when either
// is non-empty — the manager's MergedDecisions concatenation rule
// (plane, then refs, then the shard trace).
func (r *Replay) Decisions() []string {
	merged := r.st.rec.Decisions
	if refs := r.RefDecisions(); len(refs) > 0 {
		merged = append(refs, merged...)
	}
	if plane := r.plane.Decisions(); len(plane) > 0 {
		return append(append([]string(nil), plane...), merged...)
	}
	return merged
}

// Dump renders the recorded decision trace (diagnostics).
func (r *Replay) Dump() string { return r.st.rec.Dump() }

// View exposes the replay's cluster view so the differential harness
// can cross-check per-worker accounting against the manager's.
func (r *Replay) View() *policy.ClusterView { return r.st.view }

// ViewFor returns worker id's view entry, or nil if it is not live
// here — the engine-neutral cross-check hook (a sharded engine owns
// each worker in exactly one shard).
func (r *Replay) ViewFor(id string) *policy.WorkerView {
	if w := r.st.byID[id]; w != nil {
		return w.v
	}
	return nil
}
