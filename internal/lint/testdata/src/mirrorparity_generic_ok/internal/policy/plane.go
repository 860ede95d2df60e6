// Package policy is a clean fixture for mirrorparity through generics:
// both engines drive one generic plane, each instantiated with its own
// item type. The methods they reach are per-instantiation objects, so
// parity holds only once they map back to the declared method — and a
// method reached inside a generic body, on a type instantiated with
// the body's own type parameter, must map back the same way.
package policy

// Plane queues items of the engine's own type.
type Plane[T any] struct {
	q      []T
	picker Picker[T]
}

// Picker orders a plane's releases.
type Picker[T any] struct{ picks int }

// AdmitItem is the generic decision entry point both engines call.
func (p *Plane[T]) AdmitItem(it T) bool {
	p.q = append(p.q, it)
	return true
}

// Drain releases every queued item in the order the picker plans.
func (p *Plane[T]) Drain(release func(T)) {
	for _, i := range p.picker.PlanPicks(p.q) {
		release(p.q[i])
	}
	p.q = p.q[:0]
}

// PlanPicks is reached by neither engine directly, only through the
// generic Drain.
func (k *Picker[T]) PlanPicks(q []T) []int {
	out := make([]int, len(q))
	for i := range out {
		out[i] = i
	}
	k.picks += len(out)
	return out
}
