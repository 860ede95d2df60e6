// Package sim is the simulator side of the clean generic mirrorparity
// fixture: a different instantiation of the same plane.
package sim

import policy "repro/internal/lint/testdata/src/mirrorparity_generic_ok/internal/policy"

type spec struct{ key string }

// Replay admits and drains through the simulator's instantiation.
func Replay(p *policy.Plane[spec]) []string {
	p.AdmitItem(spec{key: "k"})
	var out []string
	p.Drain(func(s spec) { out = append(out, s.key) })
	return out
}
