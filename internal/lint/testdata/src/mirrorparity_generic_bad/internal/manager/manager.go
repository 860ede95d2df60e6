// Package manager is the real-engine side of the violating generic
// mirrorparity fixture: it admits but never plans a release.
package manager

import policy "repro/internal/lint/testdata/src/mirrorparity_generic_bad/internal/policy"

type item struct{ id int64 }

// Drive admits through the manager's instantiation.
func Drive(p *policy.Plane[item]) bool {
	return p.AdmitItem(item{id: 1})
}
