// Package manager is the real-engine side of the clean generic
// mirrorparity fixture.
package manager

import policy "repro/internal/lint/testdata/src/mirrorparity_generic_ok/internal/policy"

type item struct{ id int64 }

// Drive admits and drains through the manager's instantiation.
func Drive(p *policy.Plane[item]) int {
	p.AdmitItem(item{id: 1})
	n := 0
	p.Drain(func(item) { n++ })
	return n
}
