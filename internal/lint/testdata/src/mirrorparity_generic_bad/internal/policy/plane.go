// Package policy is a fixture breaking mirrorparity through generics:
// a generic plane whose decision methods are each reached from one
// engine only.
package policy

// Plane queues items of the engine's own type.
type Plane[T any] struct{ q []T }

// AdmitItem is called through the manager's instantiation only.
func (p *Plane[T]) AdmitItem(it T) bool { // want `AdmitItem is not referenced by internal/sim`
	p.q = append(p.q, it)
	return true
}

// PlanRelease is called through the simulator's instantiation only.
func (p *Plane[T]) PlanRelease() []T { // want `PlanRelease is not referenced by internal/manager`
	out := p.q
	p.q = nil
	return out
}
