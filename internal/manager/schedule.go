package manager

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
)

// The scheduling passes below are invoked from each shard's coalesced
// wake loop (index.go): scheduleTasksLocked when the task queue is
// dirty and scheduleLibQueueLocked per dirty library. They never scan
// state that their dirty mark could not have changed.
//
// Every scheduling decision — which worker runs a task, where a library
// instance deploys, which peer sources a transfer, what gets evicted —
// comes from the pure policy core (internal/policy) reading the shard's
// ClusterView. This file only *executes* decisions: it sends messages,
// moves resource commitments, and reports the resulting transitions
// back into the view. Passes plan in batches (PlanTaskBatchInto,
// PlaceReadyBatchInto) whose contract is strict sequential
// equivalence, so the decision sequence is identical to the
// one-at-a-time loop the simulator replays — the differential test in
// this package proves it.

// ---- staging execution ----

// altSourcesLocked collects up to two alternate holders' data
// addresses for a peer fetch, so the worker's data plane can retry a
// failed transfer against another source before surfacing the failure
// to the manager (which would re-stage from its own link). Candidates
// are this shard's confirmed holders minus the assigned source and the
// destination, in sorted-ID order for determinism.
func (s *shard) altSourcesLocked(objID, src, dst string) []string {
	holders := s.view.Holders[objID]
	if len(holders) <= 1 {
		return nil
	}
	var alts []string
	for _, id := range core.SortedKeys(holders) {
		if id == src || id == dst {
			continue
		}
		if hw, live := s.workers[id]; live {
			alts = append(alts, hw.hello.DataAddr)
			if len(alts) == 2 {
				break
			}
		}
	}
	return alts
}

// execStageLocked carries out one staging decision on a worker: a peer
// fetch from the chosen source or a direct bulk send from the manager.
// StageReady decisions are no-ops by construction and StageWait never
// reaches execution (placements with waiting inputs are not committed).
func (s *shard) execStageLocked(w *workerState, sf policy.StageFile) {
	switch sf.Mode {
	case policy.StagePeer:
		src := s.workers[sf.Src.ID]
		if src == nil {
			// The source died between decision and execution (same lock
			// hold in practice, but the fallback is free): the manager's
			// own link is always valid.
			s.directSendLocked(w, sf.Spec)
			return
		}
		obj := sf.Spec.Object
		s.m.catalogAdd(sf.Spec)
		src.v.TransfersOut++
		s.view.NotePending(w.v, obj.ID)
		w.fetchSources[obj.ID] = src.id
		w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
			ID:       obj.ID,
			Name:     obj.Name,
			FromAddr: src.hello.DataAddr,
			AltAddrs: s.altSourcesLocked(obj.ID, src.id, w.id),
			Source:   src.id,
			Cache:    sf.Spec.Cache,
			Unpack:   sf.Spec.Unpack,
		}})
		atomic.AddInt64(&s.m.stats.PeerTransfers, 1)
		if s.rec != nil {
			s.rec.Record(policy.TraceStage(sf))
		}
	case policy.StageDirect:
		obj := sf.Spec.Object
		if s.m.opts.PeerTransfers && sf.Spec.PeerTransfer {
			if src, alts := s.m.acquireRemoteSource(obj.ID, s.idx, w.id); src != nil {
				// Cross-shard peer sourcing: the policy core planned a
				// manager send because this shard's view holds no
				// replica — but another shard's worker does. Upgrade
				// the transport to a peer fetch from that holder. The
				// decision trace keeps the planned StageDirect: which
				// link carries the bytes across shards is a transport
				// concern, invisible to the pure per-shard policy and
				// to the simulator's replay.
				s.m.catalogAdd(sf.Spec)
				s.view.NotePending(w.v, obj.ID)
				w.fetchSources[obj.ID] = src.id
				w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
					ID:       obj.ID,
					Name:     obj.Name,
					FromAddr: src.hello.DataAddr,
					AltAddrs: alts,
					Source:   src.id,
					Cache:    sf.Spec.Cache,
					Unpack:   sf.Spec.Unpack,
				}})
				atomic.AddInt64(&s.m.stats.PeerTransfers, 1)
				if s.rec != nil {
					s.rec.Record(policy.TraceStage(sf))
				}
				return
			}
		}
		s.directSendLocked(w, sf.Spec)
		if s.rec != nil {
			s.rec.Record(policy.TraceStage(sf))
		}
	case policy.StageRef:
		// Proxy-object input: the per-shard view cannot plan this copy —
		// the bytes never transited the manager — so the shard trace
		// records only that a ref stage ran and the global ref plane
		// plans (and traces) the actual source.
		if s.rec != nil {
			s.rec.Record(policy.TraceStage(sf))
		}
		s.execRefStageLocked(w, sf)
	}
}

// execRefStageLocked resolves one proxy-object input through the ref
// plane and executes the decision. Ref transfers consume no
// view-tracked transfer slots and register no fetch-source record —
// they are bounded by the workers' data-plane serve concurrency, not
// the spanning-tree cap — so the FileAck plumbing sees them as direct
// sends that happen to arrive from a peer.
func (s *shard) execRefStageLocked(w *workerState, sf policy.StageFile) {
	m := s.m
	_, catalogKnown := m.catalogGet(sf.Object)
	d := m.refs.resolve(w.id, sf.Object, catalogKnown)
	switch d.Mode {
	case policy.ResolveReady:
		// The consumer already holds (or is receiving) a replica.
	case policy.ResolvePeer:
		addr, altAddrs := m.refSourceAddrs(d.Src, d.Alts)
		if addr == "" {
			// The chosen holder died between decision and execution; the
			// next membership event re-plans through rehome. Fall back to
			// the manager's catalog when it happens to have the bytes.
			if fs, known := m.catalogGet(sf.Object); known {
				s.directSendLocked(w, fs)
			}
			return
		}
		s.notePendingLocked(w, sf.Object)
		w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
			ID:       sf.Object,
			Name:     sf.Spec.Object.Name,
			FromAddr: addr,
			AltAddrs: altAddrs,
			Cache:    true,
			Size:     d.Size,
		}})
		atomic.AddInt64(&m.stats.RefTransfers, 1)
	case policy.ResolveShared:
		s.notePendingLocked(w, sf.Object)
		w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
			ID:     sf.Object,
			Name:   sf.Spec.Object.Name,
			Shared: true,
			Own:    d.Promote,
			Cache:  true,
			Size:   d.Size,
		}})
	case policy.ResolveDirect:
		if fs, known := m.catalogGet(sf.Object); known {
			s.directSendLocked(w, fs)
		}
	case policy.ResolveLost:
		// No copy survives anywhere. The dispatch proceeds and fails on
		// the worker with a retryable "input not staged", drawing on the
		// spec's retry budget — the documented owner-death semantics.
	}
}

// restageRefLocked recovers a failed ref fetch: the walk proved the
// replica records unreliable, so retract every non-owner holder and
// plan a fresh traced resolve against what survives. Reports whether a
// replacement transfer (whose own ack will settle the waiters) was
// issued.
func (s *shard) restageRefLocked(w *workerState, id string) bool {
	m := s.m
	name, size, tracked := m.refs.refMeta(id)
	if !tracked {
		return false
	}
	m.refs.invalidateHolders(id)
	_, catalogKnown := m.catalogGet(id)
	d := m.refs.resolve(w.id, id, catalogKnown)
	switch d.Mode {
	case policy.ResolvePeer:
		addr, altAddrs := m.refSourceAddrs(d.Src, d.Alts)
		if addr == "" {
			return false
		}
		s.notePendingLocked(w, id)
		w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
			ID: id, Name: name, FromAddr: addr, AltAddrs: altAddrs,
			Cache: true, Size: size,
		}})
		atomic.AddInt64(&m.stats.RefTransfers, 1)
		atomic.AddInt64(&m.stats.Restaged, 1)
		return true
	case policy.ResolveShared:
		s.notePendingLocked(w, id)
		w.enqueue(outMsg{t: proto.MsgFetchFile, v: proto.FetchFile{
			ID: id, Name: name, Shared: true, Own: d.Promote,
			Cache: true, Size: size,
		}})
		atomic.AddInt64(&m.stats.Restaged, 1)
		return true
	case policy.ResolveDirect:
		if fs, known := m.catalogGet(id); known {
			s.directSendLocked(w, fs)
			atomic.AddInt64(&m.stats.Restaged, 1)
			return true
		}
	}
	return false
}

// acquireRemoteSource picks a live holder of the object outside shard
// idx with a free cross-shard transfer slot, reserving the slot, and
// collects up to two other holders' data addresses as worker-side
// retry alternates. Holders are scanned in sorted-ID order for
// determinism. Cross-shard slots are accounted in the global registry
// (peerSource.out), separate from the per-shard policy views — the
// same cap applies to each domain independently.
func (m *Manager) acquireRemoteSource(objID string, idx int, dstID string) (*workerState, []string) {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	hs := m.holders[objID]
	if len(hs) == 0 {
		return nil, nil
	}
	var src *workerState
	var alts []string
	for _, id := range core.SortedKeys(hs) {
		if id == dstID {
			continue
		}
		p := m.peers[id]
		if p == nil {
			continue
		}
		if src == nil && m.router.ShardOf(id) != idx && p.out < m.opts.PeerTransferCap {
			p.out++
			src = p.w
			continue
		}
		if len(alts) < 2 {
			alts = append(alts, p.w.hello.DataAddr)
		}
	}
	if src == nil {
		return nil, nil
	}
	return src, alts
}

// releaseRemoteSource returns a cross-shard transfer slot. A no-op if
// the source died in the meantime — its slots died with it.
func (m *Manager) releaseRemoteSource(workerID string) {
	m.obsMu.Lock()
	if p := m.peers[workerID]; p != nil && p.out > 0 {
		p.out--
	}
	m.obsMu.Unlock()
}

// directSendLocked stages an object from the manager's own link as a
// bulk frame: JSON header plus the raw bytes, no base64 expansion.
func (s *shard) directSendLocked(w *workerState, fs core.FileSpec) {
	obj := fs.Object
	s.m.catalogAdd(fs)
	s.view.NotePending(w.v, obj.ID)
	w.enqueue(outMsg{t: proto.MsgPutFileBulk, v: proto.PutFileHdr{
		File: proto.FileHdr{
			ID:           obj.ID,
			Name:         obj.Name,
			Kind:         int(obj.Kind),
			LogicalSize:  obj.LogicalSize,
			UnpackedSize: obj.UnpackedSize,
		},
		Cache:  fs.Cache,
		Unpack: fs.Unpack,
	}, bulk: true, payload: obj.Data})
	atomic.AddInt64(&s.m.stats.DirectTransfers, 1)
}

// ---- task scheduling ----

// scheduleTasksLocked plans placements for the whole pending-task
// queue in one batched policy call, then executes the returned
// decisions in order. PlanTaskBatchInto's sequential-equivalence contract
// makes this emit exactly the decision sequence of the old
// plan-one/execute-one loop.
func (s *shard) scheduleTasksLocked() (forward []pendingTask, target int) {
	if len(s.pendingTasks) == 0 {
		return nil, 0
	}
	next, hasNext := s.m.router.NextAlive(s.idx)
	// Static dead ends leave before planning: a task no non-avoided
	// worker here is large enough to ever hold must not reach the
	// planner, whose avoid fallback would otherwise pin it to the
	// avoided worker forever. The global preference order is
	// non-avoided local, then any other shard, then the avoided
	// worker (once the hop budget proves nowhere else wants it).
	if hasNext {
		keep := s.pendingTasks[:0]
		for _, pt := range s.pendingTasks {
			if pt.hops < len(s.m.shards) && !s.anyEligibleWorkerLocked(pt) {
				pt.hops++
				forward = append(forward, pt)
				continue
			}
			keep = append(keep, pt)
		}
		s.pendingTasks = keep
		if len(s.pendingTasks) == 0 {
			return forward, next
		}
	}
	reqs := s.reqScratch[:0]
	for _, pt := range s.pendingTasks {
		reqs = append(reqs, policy.TaskReq{Key: pt.key, Res: pt.t.Resources, Inputs: pt.t.Inputs, Avoid: pt.avoid, Tenant: pt.t.TenantID})
	}
	decisions := s.view.PlanTaskBatchInto(s.planScratch[:0], reqs, nil)
	s.reqScratch, s.planScratch = reqs, decisions
	remaining := s.pendingTasks[:0]
	for i, pt := range s.pendingTasks {
		d := decisions[i]
		if d.Worker == nil {
			if len(d.Blocked) > 0 {
				// Blocked behind first copies in flight: each object's
				// next ack re-dirties the task queue.
				for _, obj := range d.Blocked {
					s.addObjWaiterLocked(obj, "")
				}
				remaining = append(remaining, pt)
				continue
			}
			// Capacity exists on paper but is committed, and nothing
			// local is in flight to free it (idle deployments pinning
			// workers): hop to the next live shard.
			if hasNext && pt.hops < len(s.m.shards) && s.quietLocked() {
				pt.hops++
				forward = append(forward, pt)
				continue
			}
			remaining = append(remaining, pt)
			continue
		}
		s.execPlaceTaskLocked(pt, d)
	}
	s.pendingTasks = remaining
	return forward, next
}

// execPlaceTaskLocked carries out one planned task placement: staging,
// resource commitment, dispatch, and inflight registration.
func (s *shard) execPlaceTaskLocked(pt pendingTask, d policy.PlaceTask) {
	t := pt.t
	w := s.workers[d.Worker.ID]
	if s.rec != nil {
		s.rec.Record(policy.TraceTask(pt.key, d))
	}
	start := time.Now()
	for _, sf := range d.Stages {
		s.execStageLocked(w, sf)
	}
	w.v.Commit = w.v.Commit.Add(t.Resources)
	w.enqueue(outMsg{t: proto.MsgRunTask, v: t})
	e := &inflightEntry{
		worker:  w.id,
		ringKey: pt.key,
		task:    t,
		retries: pt.retries,
		sentAt:  start,
		waiting: map[string]bool{},
	}
	// TransferTime runs from dispatch until the last input this
	// dispatch depends on is acked on the worker — not the time
	// spent enqueueing messages into in-memory channels. Register
	// in the worker's ack-waiter index so the ack finds this entry
	// without scanning the inflight table.
	for _, in := range t.Inputs {
		if in.Object != nil && w.v.Pending[in.Object.ID] {
			e.waiting[in.Object.ID] = true
			w.ackWaiters[in.Object.ID] = append(w.ackWaiters[in.Object.ID], e)
		}
	}
	s.inflight[t.ID] = e
}

// ---- invocation scheduling (§3.5.2) ----

// scheduleLibQueueLocked runs one placement pass over a single
// library's pending invocations. Ready-instance placements are planned
// in batches: one PlaceReadyBatchInto call covers a run of queue entries
// sharing the same avoid preference, and its cached decisions are
// popped as the run executes (deploys started mid-pass never change a
// ready placement — a new instance is not Ready until its ack — so the
// cache stays valid for the whole pass). When an invocation can
// neither be placed nor make progress by deploying a new instance, the
// rest of the queue is left untouched: every later invocation of the
// same library would hit the identical cluster state, so rescanning it
// is pure waste. (Per-invocation validation of the skipped tail is
// deferred until the queue drains to it.)
func (s *shard) scheduleLibQueueLocked(lib string) {
	q := s.pendingInvs[lib]
	if len(q) == 0 {
		return
	}
	remaining := q[:0]
	// Installs in flight at pass start can each absorb one queued
	// invocation when they ack; deploys started *during* this pass
	// don't join the pool — each one is already the instance its own
	// invocation will run on.
	claimable := s.installing[lib]
	claimed := 0
	var cache []policy.PlaceInvocation
	cacheAvoid := ""
	cacheValid := false
	for i, pi := range q {
		if err := s.validateInvLocked(pi.inv); err != nil {
			atomic.AddInt64(&s.m.stats.Failures, 1)
			s.emitFailure(pi.inv, err)
			continue
		}
		// First choice: a ready instance with a free slot — preferring
		// a worker other than the one a retry just failed on, when
		// possible. The batch is keyed by the avoid preference; cache
		// exhaustion within a run means no admitted capacity remains.
		if !cacheValid || cacheAvoid != pi.avoid {
			// Refilling drops any previous cache slice, so reusing the
			// shard scratch buffer underneath it is safe.
			cache = s.view.PlaceReadyBatchInto(s.invScratch[:0], lib, len(q)-i, policy.Excluding(pi.avoid))
			s.invScratch = cache
			cacheAvoid, cacheValid = pi.avoid, true
		}
		if len(cache) > 0 {
			d := cache[0]
			cache = cache[1:]
			s.execPlaceInvLocked(pi, d)
			continue
		}
		// Avoided-worker fallback: starving beats the preference. Any
		// capacity found here is on the avoided worker — the filtered
		// cache excluded it — so the cache stays exhausted, not stale.
		if pi.avoid != "" && s.placeInvocationOnReadyLocked(pi, nil) {
			continue
		}
		// An install already in flight will serve one queued invocation
		// when its ack arrives; let this invocation claim it instead of
		// over-provisioning another instance.
		if claimed < claimable {
			claimed++
			remaining = append(remaining, pi)
			continue
		}
		remaining = append(remaining, pi)
		if !s.deployForInvocationLocked(pi.inv) {
			remaining = append(remaining, q[i+1:]...)
			break
		}
	}
	s.pendingInvCount -= len(q) - len(remaining)
	if len(remaining) == 0 {
		delete(s.pendingInvs, lib)
	} else {
		s.pendingInvs[lib] = remaining
	}
}

// validateInvLocked rejects invocations that can never run: unknown
// library, quarantined library, unknown function.
func (s *shard) validateInvLocked(inv *core.InvocationSpec) error {
	spec, known := s.m.libSpec(inv.Library)
	if !known {
		return fmt.Errorf("manager: invocation %d names unknown library %q", inv.ID, inv.Library)
	}
	if s.libFailures[inv.Library] >= maxLibraryFailures || s.libInfraFailures[inv.Library] >= maxLibraryInfraFailures {
		return fmt.Errorf("manager: library %q is marked broken after repeated deployment failures", inv.Library)
	}
	for _, f := range spec.Functions {
		if f.Name == inv.Function {
			return nil
		}
	}
	return fmt.Errorf("manager: library %q has no function %q", inv.Library, inv.Function)
}

// emitFailure delivers a synthetic failed result for an unschedulable
// invocation. Called with the shard lock held; deliver never blocks
// the scheduler on a full results channel.
func (s *shard) emitFailure(inv *core.InvocationSpec, err error) {
	s.m.deliver(core.Result{ID: inv.ID, Ok: false, Err: err.Error()})
	// A plane-admitted spec resolving here returns its quota unit;
	// the shard lock is held, so drained wakes park until pump().
	if s.m.planeActive.Load() {
		s.m.plane.release(inv.TenantID, false)
	}
}

// placeInvocationOnReadyLocked plans and executes a single ready
// placement — the unbatched path, used for avoided-worker fallback.
func (s *shard) placeInvocationOnReadyLocked(pi pendingInv, f policy.Filter) bool {
	d := s.view.PlaceReady(pi.inv.Library, f)
	if d.Worker == nil {
		return false
	}
	s.execPlaceInvLocked(pi, d)
	return true
}

// execPlaceInvLocked dispatches inv to the ready instance the policy
// core picked: most free ready slots, minimum worker ID on ties (the
// deterministic order shared with the simulator).
func (s *shard) execPlaceInvLocked(pi pendingInv, d policy.PlaceInvocation) {
	inv := pi.inv
	w := s.workers[d.Worker.ID]
	li := w.libs[inv.Library]
	if s.rec != nil {
		s.rec.Record(policy.TracePlace(inv.Library, d))
	}
	li.SlotsUsed++
	s.libSlotsChangedLocked(w, li)
	w.enqueue(outMsg{t: proto.MsgInvoke, v: inv})
	var e *inflightEntry
	if n := len(s.freeInflight); n > 0 {
		e = s.freeInflight[n-1]
		s.freeInflight[n-1] = nil
		s.freeInflight = s.freeInflight[:n-1]
		*e = inflightEntry{}
	} else {
		e = &inflightEntry{}
	}
	e.worker, e.library, e.inv, e.retries, e.sentAt = w.id, inv.Library, inv, pi.retries, time.Now()
	s.inflight[inv.ID] = e
}

// deployForInvocationLocked asks the policy core for a deploy decision
// for the invocation's library and executes it: evictions first, then
// staging, then the install message. Returns whether a deployment was
// started.
func (s *shard) deployForInvocationLocked(inv *core.InvocationSpec) bool {
	spec, known := s.m.libSpec(inv.Library)
	if !known {
		return false
	}
	var libFiles []core.FileSpec
	if spec.Env != nil {
		libFiles = append(libFiles, *spec.Env)
	}
	libFiles = append(libFiles, spec.Inputs...)
	d := s.view.PlanDeploy(policy.DeploySpec{
		Name:  spec.Name,
		Res:   spec.Resources,
		Files: libFiles,
	}, nil)
	if d.Worker == nil {
		// Workers blocked only on an in-flight first copy of the
		// environment: its ack re-dirties this library's queue.
		for _, obj := range d.Blocked {
			s.addObjWaiterLocked(obj, inv.Library)
		}
		return false
	}
	w := s.workers[d.Worker.ID]
	if s.rec != nil {
		s.rec.Record(policy.TraceDeploy(spec.Name, d))
	}
	for _, e := range d.Evict {
		s.evictLibraryLocked(w, e.Lib)
	}
	for _, sf := range d.Stages {
		s.execStageLocked(w, sf)
	}
	s.installLibraryLocked(w, spec, d.Res)
	// The invocation stays pending until the LibraryAck arrives.
	return true
}

// evictLibraryLocked removes one library instance from a worker,
// releasing its resources and telling the worker to tear it down.
func (s *shard) evictLibraryLocked(w *workerState, name string) {
	li := w.libs[name]
	if li == nil {
		return
	}
	delete(w.libs, name)
	s.view.RemoveLibrary(w.v, name)
	w.v.Commit = w.v.Commit.Sub(li.Res)
	w.enqueue(outMsg{t: proto.MsgRemoveLibrary, v: proto.RemoveLibrary{Library: name}})
	atomic.AddInt64(&s.m.stats.LibrariesEvicted, 1)
}

// evictForLocked plans and executes evictions on w so that need fits.
// The plan is all-or-nothing: if even evicting every idle instance
// cannot make room, nothing is evicted and false comes back.
func (s *shard) evictForLocked(w *workerState, wantLib string, need core.Resources) bool {
	evict, ok := s.view.PlanEviction(w.v, wantLib, need)
	if !ok {
		return false
	}
	for _, e := range evict {
		s.evictLibraryLocked(w, e.Lib)
	}
	return true
}

// deployLibraryLocked stages the library's files on w and installs an
// instance with commitment res. The staging decisions come from the
// policy core; a Wait answer is forced direct because the deploy is
// already committed and the manager's own link is always a valid (if
// less scalable) source.
func (s *shard) deployLibraryLocked(w *workerState, spec *core.LibrarySpec, res core.Resources) {
	var files []core.FileSpec
	if spec.Env != nil {
		files = append(files, *spec.Env)
	}
	files = append(files, spec.Inputs...)
	for _, fs := range files {
		sf := s.view.PlanStage(w.v, fs, nil)
		if sf.Mode == policy.StageWait {
			sf.Mode = policy.StageDirect
		}
		s.execStageLocked(w, sf)
	}
	s.installLibraryLocked(w, spec, res)
}

// installLibraryLocked records the new instance in the view and sends
// the install message.
func (s *shard) installLibraryLocked(w *workerState, spec *core.LibrarySpec, res core.Resources) {
	li := &libInstance{LibraryView: policy.LibraryView{
		Name:         spec.Name,
		Slots:        spec.SlotCount(),
		MaxInstances: 1,
		Res:          res,
	}}
	w.libs[spec.Name] = li
	s.view.AddInstance(w.v, &li.LibraryView)
	w.v.Commit = w.v.Commit.Add(res)
	s.installing[spec.Name]++
	w.enqueue(outMsg{t: proto.MsgInstallLibrary, v: spec})
	atomic.AddInt64(&s.m.stats.LibrariesDeployed, 1)
}

// ObjectHolders returns how many workers hold the object — visibility
// for distribution tests. It reads the global replica registry and
// never touches any shard's scheduler lock.
func (m *Manager) ObjectHolders(obj *content.Object) int {
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	return len(m.holders[obj.ID])
}
