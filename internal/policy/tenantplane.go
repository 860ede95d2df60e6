package policy

import (
	"fmt"

	"repro/internal/core"
)

// TenantPlane is the submission plane's state machine (DESIGN.md §14),
// shared by both engines: the manager wraps it in its plane mutex, the
// simulator's drivers call it directly. It owns everything the plane
// does besides locking and delivery — per-tenant FIFOs of admitted but
// unreleased specs, the TenantState accounting the pure calls take,
// each tenant's invocation routing cursor, the cumulative per-tenant
// counts, and the recorded AdmitSubmit / PlanSubmitBatch decisions.
// Single-threaded; not safe for concurrent use.
type TenantPlane[T PlaneItem] struct {
	tenants []*planeTenant[T]
	// states aliases each tenant's TenantState in tenant-index order —
	// the slice the pure policy calls take.
	states []*TenantState
	byName map[string]int
	rec    *Recorder
}

// PlaneItem is one spec a TenantPlane queues. PlaneTask reports
// whether it is a keyed task (routed by ring key) rather than an
// invocation (routed by its tenant's cursor).
type PlaneItem interface{ PlaneTask() bool }

// TenantStat is one tenant's plane breakdown: cumulative admission
// outcomes plus a point-in-time view of its queue depth and quota
// occupancy.
type TenantStat struct {
	Name      string
	Weight    int
	Submits   int64 // submissions entering admission control
	Shed      int64 // rejected outright (queue bound hit)
	Throttled int64 // accepted with a backpressure verdict
	Done      int64 // final results delivered (quota units returned)
	Queued    int   // waiting in the plane queue right now
	InFlight  int   // released into the engine, not yet resolved
	Quota     int   // configured in-flight+queued bound (0 = unbounded)
	MaxQueue  int   // configured queue bound (0 = unbounded)
}

type planeTenant[T PlaneItem] struct {
	state TenantState
	q     []T
	head  int
	// drained is the tenant's invocation routing cursor
	// (shardplane.Router.RouteSpecTenant): advancing per released
	// invocation spreads each tenant's burst over all live shards
	// independent of global ID interleaving.
	drained                        int64
	submits, shed, throttled, done int64
}

// NewTenantPlane builds a plane over the normalized tenant registry,
// recording into rec (nil records nothing).
func NewTenantPlane[T PlaneItem](specs []core.TenantSpec, rec *Recorder) *TenantPlane[T] {
	norm := core.NormalizeTenants(specs, MaxTenantWeight)
	p := &TenantPlane[T]{byName: make(map[string]int, len(norm)), rec: rec}
	for i, ts := range norm {
		t := &planeTenant[T]{state: TenantState{Spec: ts}}
		p.tenants = append(p.tenants, t)
		p.states = append(p.states, &t.state)
		p.byName[ts.Name] = i
	}
	return p
}

// Admit runs one spec through admission control and records the
// verdict. An accepted or throttled spec joins the tenant's FIFO; a
// shed one is dropped and counted. The returned accounting is nil for
// an unregistered tenant — the caller routes such specs directly, as
// single-tenant work.
func (p *TenantPlane[T]) Admit(tenant string, it T) (*TenantState, AdmitDecision) {
	ti, ok := p.byName[tenant]
	if !ok {
		return nil, AdmitDecision{}
	}
	t := p.tenants[ti]
	t.submits++
	d := AdmitSubmit(&t.state)
	p.rec.Record(TraceAdmit(tenant, d))
	switch d.Verdict {
	case AdmitShed:
		t.shed++
		return &t.state, d
	case AdmitThrottle:
		t.throttled++
	}
	NoteQueued(p.states, &t.state)
	t.q = append(t.q, it)
	return &t.state, d
}

// Drain releases queued specs in fair-share order until no tenant is
// eligible: PlanSubmitBatch picks and records the order, and each pick
// pops its tenant's FIFO head into release along with the tenant name
// and, for an invocation, the tenant's routing cursor, which then
// advances. Returns the release count.
func (p *TenantPlane[T]) Drain(release func(it T, tenant string, seq int64)) int {
	picks := PlanSubmitBatch(p.states, 0, p.rec)
	for _, ti := range picks {
		t := p.tenants[ti]
		it := t.q[t.head]
		var zero T
		t.q[t.head] = zero // drop spec references
		t.head++
		if t.head == len(t.q) {
			t.q, t.head = t.q[:0], 0
		}
		var seq int64
		if !it.PlaneTask() {
			seq = t.drained
			t.drained++
		}
		release(it, t.state.Spec.Name, seq)
	}
	return len(picks)
}

// Release returns one unit of tenant's in-flight quota on a final
// result, success or failure. Reports whether the tenant is
// registered; empty and unregistered names change nothing.
func (p *TenantPlane[T]) Release(tenant string) bool {
	ti, ok := p.byName[tenant]
	if !ok {
		return false
	}
	t := p.tenants[ti]
	t.done++
	if t.state.InFlight > 0 {
		t.state.InFlight--
	}
	return true
}

// Stats returns the per-tenant breakdown in registry (sorted-name)
// order.
func (p *TenantPlane[T]) Stats() []TenantStat {
	out := make([]TenantStat, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, TenantStat{
			Name:      t.state.Spec.Name,
			Weight:    t.state.Spec.Weight,
			Submits:   t.submits,
			Shed:      t.shed,
			Throttled: t.throttled,
			Done:      t.done,
			Queued:    t.state.Queued,
			InFlight:  t.state.InFlight,
			Quota:     t.state.Spec.Quota,
			MaxQueue:  t.state.Spec.MaxQueue,
		})
	}
	return out
}

// CheckQuiescence verifies the plane at rest: no tenant has queued
// specs or unreleased in-flight quota.
func (p *TenantPlane[T]) CheckQuiescence() error {
	for _, t := range p.tenants {
		if t.state.Queued != 0 {
			return fmt.Errorf("tenant %q still has %d specs queued in the submission plane", t.state.Spec.Name, t.state.Queued)
		}
		if t.state.InFlight != 0 {
			return fmt.Errorf("tenant %q still holds %d in-flight quota units", t.state.Spec.Name, t.state.InFlight)
		}
	}
	return nil
}

// Decisions returns the recorded admit/drain trace (nil-plane and
// nil-recorder safe). The slice aliases the recorder.
func (p *TenantPlane[T]) Decisions() []string {
	if p == nil || p.rec == nil {
		return nil
	}
	return p.rec.Decisions
}
