// Package sim is the simulator side of the violating generic
// mirrorparity fixture: it plans releases but never admits.
package sim

import policy "repro/internal/lint/testdata/src/mirrorparity_generic_bad/internal/policy"

type spec struct{ key string }

// Replay releases through the simulator's instantiation.
func Replay(p *policy.Plane[spec]) int {
	return len(p.PlanRelease())
}
