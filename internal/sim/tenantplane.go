package sim

import "repro/internal/policy"

// simSpec is one submitted spec on its way to a shard's pending
// state — queued in the submission plane (policy.TenantPlane, shared
// with the manager) or in a shard's intake: a keyed task, or (isTask
// false) one pooled invocation carrying its owner ref.
type simSpec struct {
	isTask bool
	task   replayTask
	ref    specRef
}

func (s simSpec) PlaneTask() bool { return s.isTask }

// specRef identifies one admitted invocation across the plane and the
// slot it eventually binds to: the manager-side spec ID plus the
// owning tenant, so quota releases on completion name the same tenant
// in both engines.
type specRef struct {
	id     int64
	tenant string
}

// ---- owner threading through the pending pool ----

// pushOwner appends one admitted invocation's identity to the pool's
// owner FIFO.
func (st *state) pushOwner(ref specRef) { st.owners = append(st.owners, ref) }

// popOwner removes the FIFO head (head-indexed with storage recycling,
// like the plane's tenant FIFOs). An empty FIFO yields the zero ref —
// an untracked spec — rather than panicking.
func (st *state) popOwner() specRef {
	if st.ownersHead == len(st.owners) {
		return specRef{}
	}
	ref := st.owners[st.ownersHead]
	st.owners[st.ownersHead] = specRef{}
	st.ownersHead++
	if st.ownersHead == len(st.owners) {
		st.owners, st.ownersHead = st.owners[:0], 0
	}
	return ref
}

// queuedOwners returns the FIFO's live window (evacuation).
func (st *state) queuedOwners() []specRef { return st.owners[st.ownersHead:] }

// stampOwner assigns the next placed invocation's identity to the slot
// in replay runs: the manager pops its pending queue's head at every
// recorded placement, so the replay pops the owner FIFO at the same
// points — execReady and the deploy-ack placement in markLibReady.
func (st *state) stampOwner(sl *slot) {
	if st.trackOwners && st.replay {
		ref := st.popOwner()
		sl.owner, sl.tenant = ref.id, ref.tenant
	}
}

// ---- the timed simulator's tenant mode ----

// startTenantArrivals switches a timed run into tenant mode: the
// submission plane forms over Config.Tenants, the batch-sized pending
// pool empties, and each tenant gets an independent Poisson arrival
// process (exponential inter-arrival gaps from the run's RNG) feeding
// admission control.
func (st *state) startTenantArrivals() {
	if len(st.cfg.Tenants) == 0 || st.replay {
		return
	}
	st.plane = policy.NewTenantPlane[simSpec](st.cfg.Tenants, st.rec)
	st.trackOwners = true
	st.pending = 0
	st.arrivalsLeft = make([]int, len(st.cfg.Tenants))
	for i := range st.cfg.Tenants {
		if i < len(st.cfg.TenantInvocations) {
			st.arrivalsLeft[i] = st.cfg.TenantInvocations[i]
		}
		if st.arrivalsLeft[i] > 0 {
			st.scheduleArrival(i)
		}
	}
}

// scheduleArrival queues tenant i's next arrival one exponential gap
// from now.
func (st *state) scheduleArrival(i int) {
	rate := 1.0
	if i < len(st.cfg.TenantRates) && st.cfg.TenantRates[i] > 0 {
		rate = st.cfg.TenantRates[i]
	}
	st.S.After(st.rng.Exp(1/rate), func() { st.arrive(i) })
}

// arrive submits tenant i's next invocation through admission control:
// accepted specs queue in the plane and drain in fair-share order into
// the pending pool; shed specs vanish (counted); unregistered tenant
// names degrade to the direct single-tenant path, as in the manager.
func (st *state) arrive(i int) {
	st.arrivalsLeft[i]--
	st.nextSpecID++
	tenant := st.cfg.Tenants[i].Name
	ref := specRef{id: st.nextSpecID, tenant: tenant}
	if t, d := st.plane.Admit(tenant, simSpec{ref: ref}); t == nil {
		st.pending++
		st.pushOwner(specRef{id: ref.id})
	} else if d.Verdict != policy.AdmitShed {
		st.drainPlaneTimed()
	}
	st.tryDispatch()
	if st.arrivalsLeft[i] > 0 {
		st.scheduleArrival(i)
	}
}

// drainPlaneTimed moves every fair-share-released spec into the
// pending pool; the caller's tryDispatch picks them up.
func (st *state) drainPlaneTimed() {
	st.plane.Drain(func(it simSpec, tenant string, seq int64) {
		st.pending++
		st.pushOwner(it.ref)
	})
}
