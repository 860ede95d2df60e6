package shardplane

import (
	"fmt"
	"testing"

	"repro/internal/hashring"
)

func TestShardOfIsStableAndInRange(t *testing.T) {
	r := NewRouter(8)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("w%04d", i)
		s := r.ShardOf(id)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%s) = %d out of range", id, s)
		}
		if s != hashring.Partition(id, 8) {
			t.Fatalf("ShardOf(%s) disagrees with hashring.Partition", id)
		}
	}
	if NewRouter(1).ShardOf("anything") != 0 {
		t.Fatal("single-shard router must map everything to shard 0")
	}
}

func TestRouteSpecRoundRobinsAliveShards(t *testing.T) {
	r := NewRouter(4)
	if s := r.RouteSpec(1, "lib"); s != hashring.Partition("lib", 4) {
		t.Fatalf("RouteSpec with no live workers = %d, want the park key's home shard", s)
	}
	if s := r.RouteSpecTenant("a", 3, "lib"); s != hashring.Partition("lib", 4) {
		t.Fatalf("RouteSpecTenant with no live workers = %d, want the park key's home shard", s)
	}
	// Add workers until at least two shards are populated.
	shards := map[int]bool{}
	for i := 0; len(shards) < 2; i++ {
		id := fmt.Sprintf("w%04d", i)
		r.Add(id)
		shards[r.ShardOf(id)] = true
	}
	seen := map[int]bool{}
	for id := int64(0); id < 16; id++ {
		s := r.RouteSpec(id, "lib")
		if r.LiveIn(s) == 0 {
			t.Fatalf("RouteSpec(%d) chose empty shard %d", id, s)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("round-robin visited %d shards, want >= 2", len(seen))
	}
	// Consecutive IDs cycle through alive shards in order.
	s0 := r.RouteSpec(0, "lib")
	sN := r.RouteSpec(int64(len(seen)), "lib")
	if s0 != sN {
		t.Fatalf("RouteSpec must cycle with period len(alive): got %d then %d", s0, sN)
	}
}

func TestOwnerFollowsRingAndDeath(t *testing.T) {
	r := NewRouter(4)
	if s := r.Owner("task-1"); s != hashring.Partition("task-1", 4) {
		t.Fatalf("Owner with no live workers = %d, want the key's home shard", s)
	}
	ring := hashring.New(0)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("w%04d", i)
		r.Add(id)
		ring.Add(id)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("task-%d", i)
		if s, want := r.Owner(key), r.ShardOf(ring.Lookup(key)); s != want {
			t.Fatalf("Owner(%s) = %d, want shard of ring owner %d", key, s, want)
		}
	}
	// Removing a worker re-routes its keys to the next ring member.
	victim := ring.Lookup("task-7")
	r.Remove(victim)
	ring.Remove(victim)
	if r.Owner("task-7") != r.ShardOf(ring.Lookup("task-7")) {
		t.Fatal("Owner must follow the ring after member removal")
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	r := NewRouter(2)
	if !r.Add("w1") || r.Add("w1") {
		t.Fatal("Add must report membership change exactly once")
	}
	if r.Live() != 1 {
		t.Fatalf("Live = %d, want 1", r.Live())
	}
	if !r.Remove("w1") || r.Remove("w1") {
		t.Fatal("Remove must report membership change exactly once")
	}
	if r.Live() != 0 {
		t.Fatalf("Live = %d, want 0", r.Live())
	}
}

func TestMergeTracesConcatenatesInShardOrder(t *testing.T) {
	got := MergeTraces([][]string{{"a", "b"}, nil, {"c"}})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("merged %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}
