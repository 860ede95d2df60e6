package manager

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/policy"
)

// The submission plane (DESIGN.md §14) sits in front of the sharded
// dispatch plane: when Options.Tenants is set, every spec carrying a
// TenantID passes admission control, waits in its tenant's bounded
// plane queue, and is released to a shard's lock-free intake in
// weighted fair-share order. Queues, accounting and the recorded
// decisions — the admit verdict and each drain pick — live in
// policy.TenantPlane, the same state machine the simulator drives, so
// the differential harness diffs both engines line for line.
//
// Locking: the plane mutex is a leaf. Under it the plane only does
// tenant accounting and lock-free intake pushes (shard.pushIntake) —
// never a shard lock, never a wake. Shard wakes happen after the
// plane mutex is released; on paths that already hold a shard lock
// (emitFailure inside a schedule pass, crash-requeue exhaustion,
// library quarantine) the wakes are parked and flushed by pump() from
// the next wake-loop exit, which runs with no locks held.
type submitPlane struct {
	m *Manager

	mu sync.Mutex
	// tp holds the queues, accounting and recorded decisions — the
	// shared policy.TenantPlane, driven under mu. It always records
	// into its own recorder (never a shard's): admissions serialize on
	// the plane mutex while placements serialize on shard locks, so
	// sharing one recorder would race under concurrent use.
	tp *policy.TenantPlane[planeItem]
	// pendingWakes parks shard wake requests from drains performed
	// while the caller held a shard lock; deferredWakes makes the
	// empty check one atomic load for pump().
	pendingWakes  []bool
	deferredWakes atomic.Bool
}

type planeItem struct {
	isTask bool
	task   pendingTask
	inv    pendingInv
}

func (it planeItem) PlaneTask() bool { return it.isTask }

// newSubmitPlane builds the plane over the tenant registry.
func newSubmitPlane(m *Manager, specs []core.TenantSpec, traced bool) *submitPlane {
	var rec *policy.Recorder
	if traced {
		rec = &policy.Recorder{}
	}
	return &submitPlane{
		m:            m,
		tp:           policy.NewTenantPlane[planeItem](specs, rec),
		pendingWakes: make([]bool, m.opts.Shards),
	}
}

// submit runs one spec through admission control. It reports whether
// the plane consumed the spec: false means the tenant is unregistered
// and the caller should route directly (unknown tenants degrade to
// the single-tenant path rather than failing). On shed the spec's
// failed result has already been delivered.
func (p *submitPlane) submit(tenant string, it planeItem, id int64) bool {
	m := p.m
	p.mu.Lock()
	t, d := p.tp.Admit(tenant, it)
	if t == nil {
		p.mu.Unlock()
		return false
	}
	switch d.Verdict {
	case policy.AdmitShed:
		atomic.AddInt64(&m.stats.SubmitsShed, 1)
		atomic.AddInt64(&m.stats.Failures, 1)
		maxQueue := t.Spec.MaxQueue
		p.mu.Unlock()
		m.deliver(core.Result{ID: id, Ok: false,
			Err: fmt.Sprintf("manager: submission shed (%s): tenant %q has %d queued", d.Reason, tenant, maxQueue)})
		return true
	case policy.AdmitThrottle:
		atomic.AddInt64(&m.stats.SubmitsThrottled, 1)
	}
	wakes := p.drainLocked()
	p.mu.Unlock()
	p.wakeShards(wakes)
	return true
}

// release returns one unit of a tenant's in-flight capacity — called
// on every final result delivery for a plane-admitted spec, success
// or failure — and drains any work the freed quota unblocks. Callers
// holding a shard lock pass wakeNow=false: the drain still happens
// (intake pushes are lock-free) but the wakes park until pump().
func (p *submitPlane) release(tenant string, wakeNow bool) {
	if tenant == "" {
		return
	}
	p.mu.Lock()
	if !p.tp.Release(tenant) {
		p.mu.Unlock()
		return
	}
	wakes := p.drainLocked()
	if !wakeNow && len(wakes) > 0 {
		for _, idx := range wakes {
			p.pendingWakes[idx] = true
		}
		p.deferredWakes.Store(true)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.wakeShards(wakes)
}

// drainLocked releases queued specs in fair-share order until no
// tenant is eligible, pushing each onto its target shard's intake
// stack. Returns the shard indexes needing a wake, in first-touched
// order. Caller holds p.mu.
func (p *submitPlane) drainLocked() []int {
	m := p.m
	var wakes []int
	n := p.tp.Drain(func(it planeItem, tenant string, seq int64) {
		var idx int
		nd := intakeNodePool.Get().(*intakeNode)
		if it.isTask {
			idx = m.router.Owner(it.task.key)
			nd.isTask, nd.task = true, it.task
		} else {
			idx = m.router.RouteSpecTenant(tenant, seq, it.inv.inv.Library)
			nd.isTask, nd.inv = false, it.inv
		}
		m.shards[idx].pushIntake(nd)
		if !slices.Contains(wakes, idx) {
			wakes = append(wakes, idx)
		}
	})
	if n > 0 {
		atomic.AddInt64(&m.stats.FairDrains, int64(n))
	}
	return wakes
}

// wakeShards wakes the drained-to shards. Must be called with no
// locks held: wake may run a schedule pass inline.
func (p *submitPlane) wakeShards(wakes []int) {
	for _, idx := range wakes {
		p.m.shards[idx].wake()
	}
}

// pump flushes wakes parked by shard-lock-holding release paths. The
// wake-loop exit calls it with no locks held, so a quota release
// performed inside a schedule pass still wakes the shards its drain
// fed — without ever waking under a lock.
func (p *submitPlane) pump() {
	if !p.deferredWakes.Load() {
		return
	}
	p.mu.Lock()
	p.deferredWakes.Store(false)
	var wakes []int
	for idx, w := range p.pendingWakes {
		if w {
			p.pendingWakes[idx] = false
			wakes = append(wakes, idx)
		}
	}
	p.mu.Unlock()
	p.wakeShards(wakes)
}

// specTenant names the tenant of a resolved in-flight spec — empty
// for single-tenant work, so release() is a no-op there.
func specTenant(e *inflightEntry) string {
	if e.task != nil {
		return e.task.TenantID
	}
	if e.inv != nil {
		return e.inv.TenantID
	}
	return ""
}

// TenantStat is one tenant's submission-plane breakdown.
type TenantStat = policy.TenantStat

// TenantStats returns the per-tenant submission-plane breakdown in
// tenant-registry (sorted-name) order. Nil when the plane is off.
func (m *Manager) TenantStats() []TenantStat {
	p := m.plane
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tp.Stats()
}

// Decisions returns the plane's recorded admission/drain trace.
func (p *submitPlane) Decisions() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.tp.Decisions()...)
}

// checkQuiescence verifies the plane at rest: no tenant has queued
// specs or unreleased in-flight capacity.
func (p *submitPlane) checkQuiescence() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.tp.CheckQuiescence(); err != nil {
		return fmt.Errorf("manager: %w", err)
	}
	return nil
}
