package manager

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Differential fidelity harness: one random event trace — submissions,
// environment acks, library readiness, completions — is fed through
// the real manager (synthetic workers, synchronous event injection)
// and through the simulator's untimed Replay. Both engines consult the
// shared policy core (internal/policy) for every scheduling decision
// against equivalently-maintained cluster views, so their decision
// traces must match line for line. A divergence means one driver's
// view maintenance or decision execution drifted from the other's —
// exactly the fidelity bug class this refactor exists to make
// impossible.
//
// The harness keeps the engines in lockstep by construction:
//
//   - Worker IDs, resources, library/environment identities, and the
//     peer-transfer options are identical, so both views hash to the
//     same ring and index the same objects.
//   - The sim side runs ManagerSourceCap so high its manager link
//     never saturates — the real manager's semantics (it has no
//     self-cap; only the paper's simulator models one).
//   - For the invocation workload, completions are withheld while a
//     deploy is in flight and invocations are queued: the manager
//     binds a queued invocation to a worker only when an instance
//     becomes ready, while the simulator binds it to the deploying
//     slot immediately, so a completion elsewhere in that window would
//     legitimately place it differently. Every other interleaving is
//     fair game.

const (
	diffLib = "difflib"
	diffEnv = "env:difflib"
)

// replayEngine is the event surface shared by the simulator's two
// untimed drivers: the single-loop Replay and the ShardedReplay
// composite. The harness drives either through the same trace, so the
// sharded manager can be diffed against the sharded replay shard by
// shard.
type replayEngine interface {
	Submit(n int)
	SubmitTenant(tenant string)
	PlaneDecisions() []string
	EnvArrived(id string) bool
	EnvFailed(id string) bool
	AddWorker() string
	KillWorker(id string) bool
	LibReady(id string) bool
	Complete(id string) bool
	CompleteTask(id, key string) bool
	Fail(id, key string) bool
	Pending() int
	Decisions() []string
	Dump() string
	ViewFor(id string) *policy.WorkerView
}

// shardTracer is implemented by both engines' sharded drivers; the
// harness uses it to localize a divergence to one shard before
// comparing the merged traces.
type shardTracer interface {
	ShardDecisions() [][]string
}

// refReplay is the proxy-object event surface (DESIGN.md §15) the ref
// differential drives on the sim side: by-ref completions, ref-input
// submissions, fetch acks and faults, and the global ref decision
// stream compared against Manager.RefDecisions. Single-shard only —
// the manager's ref trace is deterministic because one shard lock
// serializes every producer.
type refReplay interface {
	SubmitTaskRefs(refs ...string)
	CompleteTaskRef(id, key string, ref core.ObjectRef) bool
	RefArrived(id, refID string) bool
	RefFailed(id, refID string) bool
	RefDecisions() []string
}

func diffEnvSpec() core.FileSpec {
	return core.FileSpec{
		Object:       &content.Object{ID: diffEnv, Name: diffEnv, LogicalSize: 64 << 20},
		Cache:        true,
		PeerTransfer: true,
		Unpack:       true,
	}
}

type diffHarness struct {
	t      *testing.T
	m      *Manager
	rp     replayEngine
	ws     []*workerState
	dead   map[string]bool
	slots  int
	shards int
	next   int // next worker index (churn continues the numbering)
	level  core.ReuseLevel
	env    core.FileSpec
	opLog  []string
	// tenantMix, when non-nil, tags every submitted spec with a tenant
	// drawn from the mix in rotation (deterministic, so both engines see
	// the identical tenant sequence); submits counts spec submissions.
	tenantMix []string
	submits   int
	// refRp is the sim's proxy-object surface (set when opts.refs);
	// producers marks spec IDs submitted with ResultByRef, refsMade
	// records every fabricated ref in creation order, and nextRef
	// numbers them — both engines see the identical ref identities and
	// sizes.
	refRp     refReplay
	producers map[int64]bool
	refsMade  []core.ObjectRef
	nextRef   int
}

// diffTenants is the multi-tenant differential registry: one
// weight-heavy unbounded tenant, one quota-gated tenant that builds a
// plane queue and throttles, and one tightly-bounded tenant that sheds
// under pressure — every admission verdict and the fair-share drain
// interleaving all appear in a 600-op trace.
func diffTenants() []core.TenantSpec {
	return []core.TenantSpec{
		{Name: "alpha", Weight: 3},
		{Name: "beta", Weight: 1, Quota: 4, ThrottleAt: 6},
		{Name: "gamma", Weight: 2, Quota: 2, MaxQueue: 3, ThrottleAt: 2},
	}
}

// diffTenantMix rotates every registry tenant (gamma oversampled to
// force sheds), an empty tenant (bypasses the plane entirely), and an
// unregistered one (degrades to the direct path).
var diffTenantMix = []string{"alpha", "beta", "alpha", "gamma", "", "alpha", "ghost", "beta", "gamma", "gamma"}

func newDiffHarness(t *testing.T, level core.ReuseLevel, workers, slots int, opts diffOpts) *diffHarness {
	t.Helper()
	shards := opts.shards
	if shards < 1 {
		shards = 1
	}
	// A retry budget no random trace can exhaust, and a backoff short
	// enough that the harness's wait for the requeue is instant. The
	// settings only matter on failure-injecting traces; the happy-path
	// workloads never draw on them.
	mopts := Options{
		PeerTransfers: true, DecisionTrace: &policy.Recorder{}, Shards: shards,
		MaxRetries: 1000, RetryBaseDelay: time.Nanosecond, RetryMaxDelay: time.Nanosecond,
	}
	if opts.tenants {
		mopts.Tenants = diffTenants()
	}
	if opts.refs {
		// A cap the 1–3MB fabricated refs overflow constantly, so
		// ownership transfers, spills, shared-tier resolves, and
		// promotes all appear in the trace (a 3MB ref even self-spills).
		mopts.RefOwnedBytesCap = 2 << 20
	}
	m := New(mopts)
	h := &diffHarness{t: t, m: m, dead: map[string]bool{}, slots: slots, shards: shards, next: workers, level: level, env: diffEnvSpec(), producers: map[int64]bool{}}
	if opts.tenants {
		h.tenantMix = diffTenantMix
	}
	if level == core.L3 {
		if err := m.RegisterLibrary(&core.LibrarySpec{
			Name:      diffLib,
			Functions: []core.FunctionSpec{{Name: "f", Source: "1"}},
			Env:       &h.env,
			Slots:     1,
			Resources: core.Resources{Cores: 1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := sim.Config{
		App:              &apps.CostModel{Name: diffLib, EnvPackedBytes: 64 << 20},
		Level:            level,
		Workers:          workers,
		SlotsPerWorker:   slots,
		PeerTransfers:    true,
		PeerCap:          3,
		ManagerSourceCap: 1 << 30,
		Seed:             1,
	}
	if opts.tenants {
		cfg.Tenants = diffTenants()
	}
	if opts.refs {
		cfg.RefOwnedBytesCap = 2 << 20
		// The manager always plans through PlanTaskBatchInto; for plain
		// inputs sequential planning is provably equivalent, but a ref
		// stage's suppression effect (the batch overlay's pending mark)
		// only matches when the sim plans through the same batch entry
		// point.
		cfg.Batched = true
	}
	if shards == 1 {
		h.rp = sim.NewReplay(cfg)
	} else {
		// The sharded replay drains through the batched policy entry
		// points, like the sharded manager; workers join through the
		// composite so IDs shard identically on both sides.
		cfg.Batched = true
		cfg.Workers = 0
		h.rp = sim.NewShardedReplay(cfg, shards)
	}
	if opts.refs {
		rr, ok := h.rp.(refReplay)
		if !ok {
			t.Fatalf("ref harness driving an engine with no proxy-object surface (%T)", h.rp)
		}
		h.refRp = rr
	}
	for i := 0; i < workers; i++ {
		h.ws = append(h.ws, h.newWorker(fmt.Sprintf("w%04d", i)))
		if shards > 1 {
			if simID := h.rp.AddWorker(); simID != h.ws[i].id {
				t.Fatalf("worker numbering diverged at setup: manager %s, sim %s", h.ws[i].id, simID)
			}
		}
	}
	return h
}

// mgrTrace and mgrDump read the manager's decision trace through the
// deterministic per-shard merge (identical to the shared recorder when
// Shards == 1).
func (h *diffHarness) mgrTrace() []string { return h.m.MergedDecisions() }

func (h *diffHarness) mgrDump() string {
	s := ""
	for _, line := range h.mgrTrace() {
		s += line + "\n"
	}
	return s
}

// newWorker registers a synthetic worker with the manager, triggering
// the same capacity wake a real connection would.
func (h *diffHarness) newWorker(id string) *workerState {
	w := &workerState{
		id: id,
		// DataAddr must be non-empty: the ref plane treats an
		// address-less resolve source as dead (refSourceAddrs).
		hello:        proto.Hello{WorkerID: id, Resources: core.Resources{Cores: h.slots}, DataAddr: "sim://" + id},
		sendq:        make(chan outMsg, 256),
		fetchSources: map[string]string{},
		ackWaiters:   map[string][]*inflightEntry{},
		libs:         map[string]*libInstance{},
	}
	if !h.m.adoptWorker(w) {
		h.t.Fatalf("duplicate worker %s", w.id)
	}
	return w
}

// shardOf is the home shard of a harness worker.
func (h *diffHarness) shardOf(w *workerState) *shard {
	return h.m.shardFor(w.id)
}

// pendingInvTotal sums queued invocations across all shards.
func (h *diffHarness) pendingInvTotal() int {
	n := 0
	for _, s := range h.m.shards {
		s.mu.Lock()
		n += s.pendingInvCount
		s.mu.Unlock()
	}
	return n
}

// live returns the indices of living workers, in worker order.
func (h *diffHarness) live() []int {
	var out []int
	for i, w := range h.ws {
		if !h.dead[w.id] {
			out = append(out, i)
		}
	}
	return out
}

// settle drops queued worker messages so the synthetic send queues
// never fill (a full queue would drop the "connection").
func (h *diffHarness) settle() {
	for _, w := range h.ws {
		drainMsgs(w)
	}
}

// crossCheck compares per-worker view accounting between the two
// engines, localizing a drift to the first op that caused it.
func (h *diffHarness) crossCheck(op string) {
	for _, w := range h.ws {
		if h.dead[w.id] {
			continue
		}
		s := h.shardOf(w)
		s.mu.Lock()
		wv := h.rp.ViewFor(w.id)
		if wv == nil {
			h.t.Fatalf("after %s: %s live on the manager, gone from the sim", op, w.id)
		}
		if w.v.TransfersOut != wv.TransfersOut {
			h.t.Fatalf("after %s: %s TransfersOut manager=%d sim=%d\nops: %v\nmgr trace:\n%s\nsim trace:\n%s", op, w.id, w.v.TransfersOut, wv.TransfersOut, h.opLog, h.mgrDump(), h.rp.Dump())
		}
		if w.v.Commit != wv.Commit {
			h.t.Fatalf("after %s: %s Commit manager=%+v sim=%+v\nops: %v\nmgr trace:\n%s\nsim trace:\n%s", op, w.id, w.v.Commit, wv.Commit, h.opLog, h.mgrDump(), h.rp.Dump())
		}
		if w.v.Pending[diffEnv] != wv.Pending[diffEnv] {
			h.t.Fatalf("after %s: %s Pending[env] manager=%v sim=%v", op, w.id, w.v.Pending[diffEnv], wv.Pending[diffEnv])
		}
		if w.v.Files[diffEnv] != wv.Files[diffEnv] {
			h.t.Fatalf("after %s: %s Files[env] manager=%v sim=%v", op, w.id, w.v.Files[diffEnv], wv.Files[diffEnv])
		}
		for _, ref := range h.refsMade {
			if w.v.Pending[ref.ID] != wv.Pending[ref.ID] {
				h.t.Fatalf("after %s: %s Pending[%s] manager=%v sim=%v\nops: %v", op, w.id, ref.ID, w.v.Pending[ref.ID], wv.Pending[ref.ID], h.opLog)
			}
			if w.v.Files[ref.ID] != wv.Files[ref.ID] {
				h.t.Fatalf("after %s: %s Files[%s] manager=%v sim=%v\nops: %v", op, w.id, ref.ID, w.v.Files[ref.ID], wv.Files[ref.ID], h.opLog)
			}
		}
		s.mu.Unlock()
	}
}

func (h *diffHarness) submit(n int) {
	h.opLog = append(h.opLog, fmt.Sprintf("submit(%d)", n))
	if h.tenantMix != nil {
		// Tenant mode submits one spec at a time so the sim runs its
		// admission control and fair-share drain at the same points the
		// manager does; the mix rotation is deterministic, so both
		// engines tag the identical spec sequence.
		for i := 0; i < n; i++ {
			tenant := h.tenantMix[h.submits%len(h.tenantMix)]
			h.submits++
			if h.level == core.L3 {
				h.m.SubmitInvocation(&core.InvocationSpec{Library: diffLib, Function: "f", TenantID: tenant})
			} else {
				h.m.Submit(&core.TaskSpec{
					Script:    "1",
					Inputs:    []core.FileSpec{h.env},
					Resources: core.Resources{Cores: 1},
					TenantID:  tenant,
				})
			}
			h.rp.SubmitTenant(tenant)
		}
		return
	}
	for i := 0; i < n; i++ {
		if h.level == core.L3 {
			h.m.SubmitInvocation(&core.InvocationSpec{Library: diffLib, Function: "f"})
		} else {
			h.m.Submit(&core.TaskSpec{
				Script:    "1",
				Inputs:    []core.FileSpec{h.env},
				Resources: core.Resources{Cores: 1},
			})
		}
	}
	h.rp.Submit(n)
}

// canEnvAck reports whether an environment copy is in flight to w.
func (h *diffHarness) canEnvAck(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[diffEnv]
}

func (h *diffHarness) envAck(w *workerState) {
	h.opLog = append(h.opLog, "envAck("+w.id+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: diffEnv, Ok: true, Cache: true})
	if !h.rp.EnvArrived(w.id) {
		h.diffTraces(0)
		h.t.Fatalf("sim rejected EnvArrived(%s) the manager accepted\nmanager trace tail: %v",
			w.id, tail(h.mgrTrace(), 6))
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// canLibReady reports whether w has an installing (un-acked) library
// instance whose environment has already arrived.
func (h *diffHarness) canLibReady(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	li := w.libs[diffLib]
	return li != nil && !li.Ready && !li.Failed && w.v.Files[diffEnv]
}

func (h *diffHarness) libReady(w *workerState) {
	h.opLog = append(h.opLog, "libReady("+w.id+")")
	h.shardOf(w).onLibraryAck(w, proto.LibraryAck{Library: diffLib, Ok: true, Instance: "i-" + w.id})
	if !h.rp.LibReady(w.id) {
		h.t.Fatalf("sim rejected LibReady(%s) the manager accepted", w.id)
	}
}

// completable returns the lowest-ID completable dispatch on w, if any.
// For tasks that means all staged inputs acked; for invocations it
// additionally requires no open deferred-binding window (see the
// harness comment above).
func (h *diffHarness) completable(w *workerState) (int64, bool) {
	if h.level == core.L3 && h.pendingInvTotal() > 0 {
		for _, ww := range h.ws {
			if h.dead[ww.id] {
				continue // a dead worker's stale instance records gate nothing
			}
			ss := h.shardOf(ww)
			ss.mu.Lock()
			li := ww.libs[diffLib]
			installing := li != nil && !li.Ready && !li.Failed
			ss.mu.Unlock()
			if installing {
				return 0, false
			}
		}
	}
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	best := int64(-1)
	for id, e := range s.inflight {
		if e.worker != w.id {
			continue
		}
		if h.level != core.L3 && len(e.waiting) > 0 {
			continue
		}
		if best < 0 || id < best {
			best = id
		}
	}
	return best, best >= 0
}

func (h *diffHarness) done(w *workerState, id int64) {
	if h.producers[id] {
		h.doneRef(w, id)
		return
	}
	h.opLog = append(h.opLog, fmt.Sprintf("done(%s,%d)", w.id, id))
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: true, Value: []byte("x")})
	// Task workloads complete by ring key: churn requeues carry keys,
	// so the engines must agree on which task each slot was running.
	ok := false
	if h.level == core.L3 {
		ok = h.rp.Complete(w.id)
	} else {
		ok = h.rp.CompleteTask(w.id, taskRingKey(id))
	}
	if !ok {
		h.t.Fatalf("sim rejected Complete(%s, task %d) the manager accepted\nops: %v\nmgr trace:\n%s\nsim trace:\n%s",
			w.id, id, h.opLog, h.mgrDump(), h.rp.Dump())
	}
}

// ---- proxy-object (pass-by-reference) events ----

// doneRef completes a ResultByRef producer: the harness fabricates the
// ObjectRef a real executor would return (deterministic ID and a 1–3MB
// size rotation that keeps the 2MB owned-bytes cap under pressure) and
// delivers it through the manager's onResult and the sim's
// CompleteTaskRef, so both catalogs perform the identical ownership
// transfer — and the identical cascaded spills.
func (h *diffHarness) doneRef(w *workerState, id int64) {
	ref := core.ObjectRef{
		ID:    fmt.Sprintf("ref-%04d", h.nextRef),
		Name:  fmt.Sprintf("task-%d.out", id),
		Size:  int64(1+h.nextRef%3) << 20,
		Owner: w.id,
		Tier:  core.TierCache,
	}
	h.nextRef++
	h.refsMade = append(h.refsMade, ref)
	h.opLog = append(h.opLog, fmt.Sprintf("doneRef(%s,%d,%s)", w.id, id, ref.ID))
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: true, Ref: &ref})
	if !h.refRp.CompleteTaskRef(w.id, taskRingKey(id), ref) {
		h.t.Fatalf("sim rejected CompleteTaskRef(%s, task %d) the manager accepted\nops: %v\nmgr trace:\n%s\nsim trace:\n%s",
			w.id, id, h.opLog, h.mgrDump(), h.rp.Dump())
	}
}

// submitProducer submits one task whose result stays on the producing
// worker (ResultByRef). The sim side sees a plain keyed task —
// ResultByRef does not affect planning, only the completion.
func (h *diffHarness) submitProducer() {
	h.opLog = append(h.opLog, "submitProducer")
	id := h.m.Submit(&core.TaskSpec{
		Script:      "1",
		Inputs:      []core.FileSpec{h.env},
		Resources:   core.Resources{Cores: 1},
		ResultByRef: true,
	})
	h.producers[id] = true
	h.rp.Submit(1)
}

// submitConsumer submits one task whose inputs are the environment plus
// a RefSpec per given ref ID — the pass-by-reference consumption path.
// Both engines rebuild the identical FileSpec bindings (the manager
// from refsMade, the sim from its mirrored catalog).
func (h *diffHarness) submitConsumer(ids []string) {
	h.opLog = append(h.opLog, fmt.Sprintf("submitConsumer(%v)", ids))
	inputs := []core.FileSpec{h.env}
	for _, rid := range ids {
		ref := h.refByID(rid)
		inputs = append(inputs, core.RefSpec(&core.ObjectRef{ID: ref.ID, Name: ref.Name, Size: ref.Size}))
	}
	h.m.Submit(&core.TaskSpec{Script: "1", Inputs: inputs, Resources: core.Resources{Cores: 1}})
	h.refRp.SubmitTaskRefs(ids...)
}

func (h *diffHarness) refByID(id string) core.ObjectRef {
	for _, ref := range h.refsMade {
		if ref.ID == id {
			return ref
		}
	}
	h.t.Fatalf("unknown ref %s", id)
	return core.ObjectRef{}
}

// refPending reports whether a ref copy is in flight to w.
func (h *diffHarness) refPending(w *workerState, refID string) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[refID]
}

// refPendingWorkers lists the live workers with an in-flight copy of
// refID, in worker order.
func (h *diffHarness) refPendingWorkers(refID string) []*workerState {
	var out []*workerState
	for _, w := range h.ws {
		if !h.dead[w.id] && h.refPending(w, refID) {
			out = append(out, w)
		}
	}
	return out
}

// refAck lands a consumer's ref fetch: the manager's FileAck path
// (replica note + ref-catalog holder) against the sim's RefArrived.
func (h *diffHarness) refAck(w *workerState, refID string) {
	h.opLog = append(h.opLog, "refAck("+w.id+","+refID+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: refID, Ok: true, Cache: true})
	if !h.refRp.RefArrived(w.id, refID) {
		h.t.Fatalf("sim rejected RefArrived(%s,%s) the manager accepted\nops: %v", w.id, refID, h.opLog)
	}
}

// refFail fails a consumer's in-flight ref fetch: the manager retracts
// every non-owner holder and plans a fresh traced resolve
// (restageRefLocked) against the sim's RefFailed mirror.
func (h *diffHarness) refFail(w *workerState, refID string) {
	h.opLog = append(h.opLog, "refFail("+w.id+","+refID+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: refID, Ok: false, Err: "injected ref fetch fault"})
	if !h.refRp.RefFailed(w.id, refID) {
		h.t.Fatalf("sim rejected RefFailed(%s,%s) the manager accepted\nops: %v", w.id, refID, h.opLog)
	}
}

// ---- churn and failure injection ----

func (h *diffHarness) addWorker() {
	id := fmt.Sprintf("w%04d", h.next)
	h.next++
	h.opLog = append(h.opLog, "join("+id+")")
	h.ws = append(h.ws, h.newWorker(id))
	if simID := h.rp.AddWorker(); simID != id {
		h.t.Fatalf("worker numbering diverged: manager added %s, sim added %s", id, simID)
	}
}

func (h *diffHarness) killWorker(w *workerState) {
	h.opLog = append(h.opLog, "kill("+w.id+")")
	h.dead[w.id] = true
	h.m.onWorkerGone(w)
	if !h.rp.KillWorker(w.id) {
		h.t.Fatalf("sim rejected KillWorker(%s)", w.id)
	}
}

// canEnvFail reports whether w has an in-flight *peer* env fetch — the
// only kind whose failure the manager recovers by restaging direct.
func (h *diffHarness) canEnvFail(w *workerState) bool {
	s := h.shardOf(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.v.Pending[diffEnv] && w.fetchSources[diffEnv] != ""
}

func (h *diffHarness) envFail(w *workerState) {
	h.opLog = append(h.opLog, "envFail("+w.id+")")
	h.shardOf(w).onFileAck(w, proto.FileAck{ID: diffEnv, Ok: false, Err: "injected transfer fault"})
	if !h.rp.EnvFailed(w.id) {
		h.t.Fatalf("sim rejected EnvFailed(%s) the manager accepted", w.id)
	}
}

func (h *diffHarness) taskFail(w *workerState, id int64) {
	h.opLog = append(h.opLog, fmt.Sprintf("fail(%s,%d)", w.id, id))
	h.shardOf(w).onResult(w, core.Result{ID: id, Ok: false, Retryable: true, Err: "injected fault"})
	h.waitRetryLanded()
	if !h.rp.Fail(w.id, taskRingKey(id)) {
		h.t.Fatalf("sim rejected Fail(%s, task %d) the manager accepted", w.id, id)
	}
}

// waitRetryLanded blocks until every pending backoff timer has fired
// and requeued its spec (and the follow-up schedule pass finished), so
// the manager's decisions from a retry are recorded before the sim's.
// The dirty marks are part of the predicate: the timer callback sets
// them and drops the lock before it calls wake, so backoffs can read 0
// with the requeue's schedule pass still ahead.
func (h *diffHarness) waitRetryLanded() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		quiet := true
		for _, s := range h.m.shards {
			s.mu.Lock()
			if s.backoffs != 0 || s.wakeState.Load() != wakeIdle || s.hasDirtyLocked() || s.intake.Load() != nil {
				quiet = false
			}
			s.mu.Unlock()
		}
		if quiet {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatal("backoff requeue never landed")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// quiesce applies every applicable non-submit event in deterministic
// order until none applies: all transfers land, all deploys come up,
// all dispatches complete.
func (h *diffHarness) quiesce() {
	for {
		progressed := false
		for _, w := range h.ws {
			if h.dead[w.id] {
				continue
			}
			h.settle()
			if h.canEnvAck(w) {
				h.envAck(w)
				progressed = true
			}
			for _, ref := range h.refsMade {
				if h.refPending(w, ref.ID) {
					h.refAck(w, ref.ID)
					progressed = true
				}
			}
			if h.level == core.L3 && h.canLibReady(w) {
				h.libReady(w)
				progressed = true
			}
			for {
				id, ok := h.completable(w)
				if !ok {
					break
				}
				h.done(w, id)
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// diffTraces asserts the two decision traces are identical, printing
// the first divergence with context. Sharded runs are compared shard
// by shard first (a divergence names its shard), then as the merged
// trace — proving the per-shard streams AND the deterministic merge
// rule agree.
func (h *diffHarness) diffTraces(minLines int) {
	if h.tenantMix != nil {
		// The submission plane's trace (admit verdicts, fair-share
		// picks) is its own stream, compared before the shard traces so
		// an admission or drain-order divergence names itself directly.
		h.diffTracePair("plane", h.m.PlaneDecisions(), h.rp.PlaneDecisions())
	}
	if h.refRp != nil {
		// The global ref stream (ownership transfers, spills, resolves,
		// promotes, rehomes) is likewise its own trace, compared before
		// the merged view so a proxy-object divergence names itself.
		h.diffTracePair("refs", h.m.RefDecisions(), h.refRp.RefDecisions())
	}
	if h.shards > 1 {
		st, ok := h.rp.(shardTracer)
		if !ok {
			h.t.Fatalf("sharded harness driving an engine with no per-shard traces (%T)", h.rp)
		}
		mgrShards := h.m.ShardDecisions()
		simShards := st.ShardDecisions()
		if len(mgrShards) != len(simShards) {
			h.t.Fatalf("shard counts differ: manager=%d sim=%d", len(mgrShards), len(simShards))
		}
		for i := range mgrShards {
			h.diffTracePair(fmt.Sprintf("shard %d", i), mgrShards[i], simShards[i])
		}
	}
	mgr := h.mgrTrace()
	rep := h.rp.Decisions()
	h.diffTracePair("merged", mgr, rep)
	if len(mgr) < minLines {
		h.t.Fatalf("degenerate run: only %d decisions recorded, want >= %d", len(mgr), minLines)
	}
}

func (h *diffHarness) diffTracePair(what string, mgr, rep []string) {
	n := len(mgr)
	if len(rep) < n {
		n = len(rep)
	}
	for i := 0; i < n; i++ {
		if mgr[i] != rep[i] {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			h.t.Fatalf("%s decision traces diverge at line %d:\n  manager: %q\n  sim:     %q\ncontext (manager):\n  %v\ncontext (sim):\n  %v\nFULL mgr:\n%s\nFULL sim:\n%s",
				what, i, mgr[i], rep[i], mgr[lo:i+1], rep[lo:i+1], h.mgrDump(), h.rp.Dump())
		}
	}
	if len(mgr) != len(rep) {
		h.t.Fatalf("%s trace lengths differ: manager=%d sim=%d (first %d lines identical)\nFULL mgr:\n%s\nFULL sim:\n%s",
			what, len(mgr), len(rep), n, h.mgrDump(), h.rp.Dump())
	}
}

// diffOpts selects the optional adversarial event classes a
// differential run mixes into its trace, and the dispatch-plane
// partition count both engines run at.
type diffOpts struct {
	churn bool // random worker joins and deaths mid-trace
	fail  bool // injected transfer faults and retryable task failures
	// shards > 1 runs the sharded manager against the sharded replay.
	// fail is incompatible with shards > 1: the manager upgrades some
	// cross-shard direct sends to peer fetches at the transport layer
	// (invisible to the per-shard policy view), so a canEnvFail probe
	// would pick transfers the sim has recorded as manager sends; the
	// failed-peer-fetch recovery is instead covered end to end by the
	// faultnet test (taskvine/fault_test.go).
	shards int
	// tenants activates the multi-tenant submission plane on both
	// engines (diffTenants registry, diffTenantMix spec tagging) and
	// adds the plane trace to the comparison.
	tenants bool
	// refs mixes in the proxy-object data plane: ResultByRef producers,
	// ref-consuming tasks, fetch acks, and (with fail) fetch faults,
	// with the global ref decision stream added to the comparison. Task
	// workloads only, single shard, single tenant — the manager's ref
	// trace is deterministic because one shard lock serializes every
	// producer (see refPlane).
	refs bool
}

// injectChaos maybe applies one churn or failure event, reporting
// whether it consumed the op. Called only when an opts flag is set, so
// the flag-free workloads draw exactly the random sequence they always
// did and their traces stay byte-identical.
func (h *diffHarness) injectChaos(rng *rand.Rand, opts diffOpts, joins *int) bool {
	switch rng.Intn(25) {
	case 0:
		if opts.churn {
			if live := h.live(); len(live) > 3 {
				h.killWorker(h.ws[live[rng.Intn(len(live))]])
				return true
			}
		}
	case 1:
		if opts.churn && *joins < 5 {
			*joins++
			h.addWorker()
			return true
		}
	case 2:
		if opts.fail {
			for _, k := range rng.Perm(len(h.ws)) {
				w := h.ws[k]
				if !h.dead[w.id] && h.canEnvFail(w) {
					h.envFail(w)
					return true
				}
			}
		}
	case 3:
		// Retryable task failure: only task workloads — the sim's
		// invocation pool is keyless, so a specific invocation cannot
		// be failed-and-avoided there.
		if opts.fail && h.level != core.L3 {
			for _, k := range rng.Perm(len(h.ws)) {
				w := h.ws[k]
				if h.dead[w.id] {
					continue
				}
				if id, ok := h.completable(w); ok {
					h.taskFail(w, id)
					return true
				}
			}
		}
	}
	return false
}

// injectRef maybe applies one proxy-object event, reporting whether it
// consumed the op. Called only when opts.refs is set, so the flag-free
// workloads keep their exact random sequences.
func (h *diffHarness) injectRef(rng *rand.Rand, opts diffOpts, outstanding *int) bool {
	switch rng.Intn(8) {
	case 0, 1:
		if *outstanding < 120 {
			h.submitProducer()
			*outstanding++
			return true
		}
	case 2, 3:
		if len(h.refsMade) > 0 && *outstanding < 120 {
			ids := []string{h.refsMade[rng.Intn(len(h.refsMade))].ID}
			if rng.Intn(2) == 1 {
				if id2 := h.refsMade[rng.Intn(len(h.refsMade))].ID; id2 != ids[0] {
					ids = append(ids, id2)
				}
			}
			h.submitConsumer(ids)
			*outstanding++
			return true
		}
	case 4, 5:
		for _, wi := range rng.Perm(len(h.ws)) {
			w := h.ws[wi]
			if h.dead[w.id] {
				continue
			}
			for _, ri := range rng.Perm(len(h.refsMade)) {
				if refID := h.refsMade[ri].ID; h.refPending(w, refID) {
					h.refAck(w, refID)
					return true
				}
			}
		}
	case 6:
		if opts.fail {
			for _, wi := range rng.Perm(len(h.ws)) {
				w := h.ws[wi]
				if h.dead[w.id] {
					continue
				}
				for _, ri := range rng.Perm(len(h.refsMade)) {
					if refID := h.refsMade[ri].ID; h.refPending(w, refID) {
						h.refFail(w, refID)
						return true
					}
				}
			}
		}
	}
	return false
}

// runDifferential drives ops random events through both engines and
// diffs the decision traces, then drives both to quiescence and diffs
// again.
func runDifferential(t *testing.T, level core.ReuseLevel, slots int, seed int64, ops int, opts diffOpts) {
	if opts.fail && opts.shards > 1 {
		t.Fatal("fail injection is not differential-testable at shards > 1 (see diffOpts)")
	}
	if opts.refs && (opts.shards > 1 || opts.tenants || level == core.L3) {
		t.Fatal("ref injection runs task workloads at one shard, no tenants (see diffOpts)")
	}
	h := newDiffHarness(t, level, 7, slots, opts)
	rng := rand.New(rand.NewSource(seed))
	outstanding := 0
	joins := 0
	for i := 0; i < ops; i++ {
		h.settle()
		h.crossCheck(fmt.Sprintf("op %d", i))
		if (opts.churn || opts.fail) && h.injectChaos(rng, opts, &joins) {
			continue
		}
		if opts.refs && h.injectRef(rng, opts, &outstanding) {
			continue
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			if outstanding < 120 {
				n := 1 + rng.Intn(4)
				h.submit(n)
				outstanding += n
			}
		case 3, 4:
			for _, k := range rng.Perm(len(h.ws)) {
				if !h.dead[h.ws[k].id] && h.canEnvAck(h.ws[k]) {
					h.envAck(h.ws[k])
					break
				}
			}
		case 5:
			if level == core.L3 {
				for _, k := range rng.Perm(len(h.ws)) {
					if !h.dead[h.ws[k].id] && h.canLibReady(h.ws[k]) {
						h.libReady(h.ws[k])
						break
					}
				}
			}
		default:
			for _, k := range rng.Perm(len(h.ws)) {
				if h.dead[h.ws[k].id] {
					continue
				}
				if id, ok := h.completable(h.ws[k]); ok {
					h.done(h.ws[k], id)
					outstanding--
					break
				}
			}
		}
	}
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("manager not quiescent after drain: %v", err)
	}
	if p := h.rp.Pending(); p != 0 {
		t.Errorf("sim replay still has %d pending invocations after drain", p)
	}
	h.diffTraces(ops / 4)
	if opts.tenants {
		// A trace where admission control never bit would vacuously
		// pass: require every verdict class and the fair-share drain to
		// have actually fired.
		st := h.m.Stats()
		if st.SubmitsShed == 0 || st.SubmitsThrottled == 0 || st.FairDrains == 0 {
			t.Errorf("degenerate tenant run: shed=%d throttled=%d fairDrains=%d — registry pressure never materialized",
				st.SubmitsShed, st.SubmitsThrottled, st.FairDrains)
		}
	}
	if opts.refs {
		// Likewise for the ref plane: ownership transfers and cap
		// pressure (spills) must have actually appeared, and no result
		// bytes may have transited the manager for the by-ref results.
		st := h.m.Stats()
		if st.RefResults == 0 || st.RefSpills == 0 {
			t.Errorf("degenerate ref run: refResults=%d refSpills=%d — the owned-bytes cap never bit", st.RefResults, st.RefSpills)
		}
		if st.BytesByRef == 0 {
			t.Errorf("degenerate ref run: no result bytes stayed on workers")
		}
	}
}

func TestDifferentialTaskWorkload(t *testing.T) {
	// L2-style stateless tasks carrying a cached peer-transferable
	// environment input: exercises ring placement, direct vs peer
	// staging, first-copy suppression, and per-source caps.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{})
	}
}

func TestDifferentialInvocationWorkload(t *testing.T) {
	// L3 function invocations on single-slot library instances:
	// exercises ready-instance placement, hash-ring deploys with the
	// saturation guard, and deploy staging.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L3, 1, seed, 600, diffOpts{})
	}
}

func TestDifferentialWorkerChurn(t *testing.T) {
	// Workers join and die mid-trace: exercises ring reshaping, replica
	// and in-flight-copy teardown, transfer-slot recovery from dead
	// sources and destinations, and the deterministic ascending-ID
	// requeue with the dead worker as the avoid preference.
	for _, seed := range []int64{1, 2} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{churn: true})
		runDifferential(t, core.L3, 1, seed, 600, diffOpts{churn: true})
	}
}

func TestDifferentialRetryAndAvoidance(t *testing.T) {
	// Injected transfer faults (peer fetch fails → manager restages
	// direct, no new decision) and retryable task failures (backoff →
	// requeue at the back with the failing worker avoided): exercises
	// the manager's recovery paths against the replay's keyed queue.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{fail: true})
	}
}

func TestDifferentialChurnWithFailures(t *testing.T) {
	// Both adversarial classes at once — deaths can strand in-flight
	// fetches that then fail, retries can land on workers that later
	// die. The harshest fidelity workload we run.
	runDifferential(t, core.L2, 2, 7, 600, diffOpts{churn: true, fail: true})
}

func TestDifferentialSharded(t *testing.T) {
	// The sharded dispatch plane against the sharded replay: identical
	// routing (ring-key owners for tasks, spec-ID round-robin for
	// invocations), identical batched decision sequences per shard, and
	// the same deterministic trace merge. 2 and 3 shards make both the
	// single-worker-shard and multi-worker-shard layouts appear.
	for _, shards := range []int{2, 3} {
		runDifferential(t, core.L2, 2, int64(10+shards), 600, diffOpts{shards: shards})
		runDifferential(t, core.L3, 1, int64(20+shards), 600, diffOpts{shards: shards})
	}
}

func TestDifferentialMultiTenant(t *testing.T) {
	// The multi-tenant submission plane against the sim's mirror:
	// identical admit verdicts (accept, throttle, quota-gated queuing,
	// shed), identical fair-share drain order under the virtual-time
	// model, identical quota releases on the completion path, and the
	// empty/unregistered tenants riding the direct path untouched. The
	// plane trace, each shard trace, and the merged trace must all be
	// byte-identical.
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{1, 2} {
			runDifferential(t, core.L3, 1, seed, 600, diffOpts{shards: shards, tenants: true})
			runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: shards, tenants: true})
		}
	}
}

func TestDifferentialMultiTenantChurn(t *testing.T) {
	// Worker churn with the plane active: deaths requeue dispatched
	// specs without releasing their quota units (the retry still holds
	// its admission), evacuations carry the admitted-owner FIFO across
	// shards, and the fair-share drain keeps feeding a reshaped plane.
	for _, seed := range []int64{41, 42} {
		runDifferential(t, core.L3, 1, seed, 600, diffOpts{shards: 3, churn: true, tenants: true})
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: 3, churn: true, tenants: true})
	}
}

func TestDifferentialRefDataPlane(t *testing.T) {
	// The proxy-object data plane against the sim's ref mirror:
	// identical ownership transfers on by-ref completions, identical
	// cap-pressure spills (1–3MB refs against a 2MB owned budget),
	// identical resolves for ref-consuming tasks — ready on holders,
	// min-ID peer picks, shared-tier fetches with promote-on-reuse —
	// and identical holder bookkeeping on fetch acks. The ref stream,
	// the shard trace, and the merged trace must all be byte-identical.
	for _, seed := range []int64{1, 2, 3} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true})
	}
}

func TestDifferentialRefChurnAndFailures(t *testing.T) {
	// Refs under churn and faults: owners die with consumers' fetches
	// in flight (rehome onto survivors, shared fallback, or lost),
	// failed fetches invalidate the holder walk and re-resolve, and
	// retryable task failures requeue consumers with their ref inputs
	// intact. Owner death mid-resolve arises naturally: a killed owner
	// leaves pending fetches the fault injector then fails.
	for _, seed := range []int64{7, 8} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{refs: true, churn: true, fail: true})
	}
}

func TestDifferentialRefOwnerDeathMidResolve(t *testing.T) {
	// The scripted worst case: a ref's owner dies while one consumer's
	// fetch from it is still in flight. A second consumer that already
	// acked adopts the ref (rehome), the stranded fetch fails and
	// re-resolves onto the new owner, and the replacement fetch lands —
	// every step compared across both engines.
	h := newDiffHarness(t, core.L2, 4, 2, diffOpts{refs: true})
	h.submitProducer()
	h.quiesce()
	h.settle()
	if len(h.refsMade) != 1 {
		t.Fatalf("expected 1 ref after the producer phase, have %d", len(h.refsMade))
	}
	ref := h.refsMade[0]
	owner := ref.Owner

	// Fill the cluster with consumers of that ref, then land every
	// environment copy (but no ref fetches): each non-owner worker
	// running a consumer now has the ref fetch in flight.
	for i := 0; i < 8; i++ {
		h.submitConsumer([]string{ref.ID})
	}
	h.settle()
	for _, w := range h.ws {
		if !h.dead[w.id] && h.canEnvAck(w) {
			h.envAck(w)
		}
	}
	h.settle()
	pend := h.refPendingWorkers(ref.ID)
	if len(pend) < 2 {
		t.Fatalf("need two in-flight ref fetches to script the race, have %d", len(pend))
	}
	wA, wB := pend[0], pend[1]

	// wA's fetch lands (second holder); wB's stays in flight while the
	// owner dies. The rehome must hand the ref to wA — the only
	// surviving holder of record.
	h.refAck(wA, ref.ID)
	for _, w := range h.ws {
		if w.id == owner {
			h.killWorker(w)
		}
	}
	h.settle()
	h.crossCheck("owner death")

	// wB's stranded fetch now fails; the re-resolve must land on the
	// new owner, and the replacement fetch completes the task.
	h.refFail(wB, ref.ID)
	if !h.refPending(wB, ref.ID) {
		t.Fatalf("failed fetch on %s was not re-staged onto the new owner", wB.id)
	}
	h.refAck(wB, ref.ID)
	h.quiesce()
	h.settle()
	if err := h.m.CheckQuiescence(); err != nil {
		t.Errorf("manager not quiescent after drain: %v", err)
	}
	h.crossCheck("final")
	h.diffTraces(1)

	// The ref stream must show the scripted fate: ownership, the
	// rehome onto wA, and a post-death resolve onto the new owner.
	trace := h.m.RefDecisions()
	wantRehome := fmt.Sprintf("rehome obj=%s owner=%s", ref.ID, wA.id)
	wantResolve := fmt.Sprintf("resolve obj=%s dst=%s mode=peer src=%s", ref.ID, wB.id, wA.id)
	var sawRehome, sawResolve bool
	for _, line := range trace {
		if line == wantRehome {
			sawRehome = true
		}
		if sawRehome && line == wantResolve {
			sawResolve = true
		}
	}
	if !sawRehome || !sawResolve {
		t.Errorf("ref trace missing the scripted fate (rehome=%v, post-death resolve=%v):\nwant %q then %q\ngot:\n%v",
			sawRehome, sawResolve, wantRehome, wantResolve, trace)
	}
	if st := h.m.Stats(); st.RefRehomes == 0 {
		t.Errorf("RefRehomes stat never counted the scripted rehome")
	}
}

func TestDifferentialShardedChurn(t *testing.T) {
	// Churn under sharding exercises every shard-crossing path: ring
	// reshaping moves task ownership between shards, a shard losing its
	// last worker evacuates its queues, overflow tasks hop to the next
	// live shard when the home shard's only worker is the avoid target,
	// and starvation nudges reset hop budgets on capacity events.
	for _, seed := range []int64{31, 32} {
		runDifferential(t, core.L2, 2, seed, 600, diffOpts{shards: 3, churn: true})
		runDifferential(t, core.L3, 1, seed, 600, diffOpts{shards: 3, churn: true})
	}
}
