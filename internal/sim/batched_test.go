package sim

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// Batched-vs-unbatched differential: one random event script drives
// two Replays that differ only in Config.Batched, so the per-decision
// policy entry points (PlanTask / PlaceReady) and the batched ones
// (PlanTaskBatchInto / PlaceReadyBatchInto) replay the same trace. The batch
// contract promises strict sequential equivalence — each batch
// decision must equal what the per-decision call would have returned
// against the incrementally-updated view — so the two engines must
// accept exactly the same events and emit byte-identical decision
// traces. This is the single-engine half of the sharded fidelity
// argument: the manager's sharded pass plans through the batch entry
// points, and internal/manager's differential tests compare it against
// the batched Replay; this test closes the loop back to the
// per-decision simulator the golden traces were recorded with.

func newBatchedPair(level core.ReuseLevel, slots int) (plain, batched *Replay) {
	mk := func(b bool) *Replay {
		return NewReplay(Config{
			App:              &apps.CostModel{Name: "batchlib", EnvPackedBytes: 64 << 20},
			Level:            level,
			Workers:          5,
			SlotsPerWorker:   slots,
			PeerTransfers:    true,
			PeerCap:          3,
			ManagerSourceCap: 1 << 30,
			Seed:             1,
			Batched:          b,
		})
	}
	return mk(false), mk(true)
}

// both applies one event to both engines and requires them to agree on
// whether it was accepted; divergent acceptance means the batched
// drain saw a different view than the per-decision one.
func both(t *testing.T, op string, a, b bool) bool {
	t.Helper()
	if a != b {
		t.Fatalf("%s: unbatched=%v batched=%v", op, a, b)
	}
	return a
}

func runBatchedDifferential(t *testing.T, level core.ReuseLevel, slots int, seed int64, ops int) {
	plain, batched := newBatchedPair(level, slots)
	rng := rand.New(rand.NewSource(seed))
	var live []string
	for i := 0; i < 5; i++ {
		live = append(live, "w"+pad4(i))
	}
	joins := 0
	for i := 0; i < ops; i++ {
		switch rng.Intn(12) {
		case 0, 1, 2:
			n := 1 + rng.Intn(4)
			plain.Submit(n)
			batched.Submit(n)
		case 3, 4:
			for _, k := range rng.Perm(len(live)) {
				if both(t, "EnvArrived("+live[k]+")",
					plain.EnvArrived(live[k]), batched.EnvArrived(live[k])) {
					break
				}
			}
		case 5:
			if level == core.L3 {
				for _, k := range rng.Perm(len(live)) {
					if both(t, "LibReady("+live[k]+")",
						plain.LibReady(live[k]), batched.LibReady(live[k])) {
						break
					}
				}
			}
		case 6:
			for _, k := range rng.Perm(len(live)) {
				if both(t, "EnvFailed("+live[k]+")",
					plain.EnvFailed(live[k]), batched.EnvFailed(live[k])) {
					break
				}
			}
		case 7:
			// Churn exercises the batch planners' failure paths: kills
			// requeue work carrying an avoid preference (the two-phase
			// Excluding fallback inside PlanTaskBatchInto), and joins grow
			// the view mid-batch.
			if len(live) > 3 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				both(t, "KillWorker("+live[k]+")",
					plain.KillWorker(live[k]), batched.KillWorker(live[k]))
				live = append(live[:k], live[k+1:]...)
			} else if joins < 4 {
				joins++
				ida, idb := plain.AddWorker(), batched.AddWorker()
				if ida != idb {
					t.Fatalf("AddWorker: unbatched=%s batched=%s", ida, idb)
				}
				live = append(live, ida)
			}
		default:
			for _, k := range rng.Perm(len(live)) {
				if both(t, "Complete("+live[k]+")",
					plain.Complete(live[k]), batched.Complete(live[k])) {
					break
				}
			}
		}
	}
	// Quiesce both engines: sweep deliveries and completions in worker
	// order until a full sweep makes no progress, still in lockstep.
	for progress := true; progress; {
		progress = false
		for _, id := range live {
			if both(t, "quiesce EnvArrived("+id+")",
				plain.EnvArrived(id), batched.EnvArrived(id)) {
				progress = true
			}
			if level == core.L3 && both(t, "quiesce LibReady("+id+")",
				plain.LibReady(id), batched.LibReady(id)) {
				progress = true
			}
			if both(t, "quiesce Complete("+id+")",
				plain.Complete(id), batched.Complete(id)) {
				progress = true
			}
		}
	}
	if p, q := plain.Pending(), batched.Pending(); p != 0 || q != 0 {
		t.Fatalf("pending after quiesce: unbatched=%d batched=%d", p, q)
	}
	pd, bd := plain.Decisions(), batched.Decisions()
	for i := 0; i < len(pd) && i < len(bd); i++ {
		if pd[i] != bd[i] {
			t.Fatalf("decision %d diverged:\nunbatched: %s\nbatched:   %s\nunbatched trace:\n%s\nbatched trace:\n%s",
				i, pd[i], bd[i], plain.Dump(), batched.Dump())
		}
	}
	if len(pd) != len(bd) {
		t.Fatalf("trace lengths diverged: unbatched=%d batched=%d", len(pd), len(bd))
	}
	if len(pd) < ops/4 {
		t.Fatalf("degenerate run: only %d decisions over %d ops", len(pd), ops)
	}
}

func TestBatchedReplayDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		runBatchedDifferential(t, core.L2, 2, seed, 500)
		runBatchedDifferential(t, core.L3, 1, seed, 500)
		runBatchedDifferential(t, core.L3, 2, seed+100, 500)
	}
}
