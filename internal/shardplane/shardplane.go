// Package shardplane is the routing fabric of the sharded dispatch
// plane (DESIGN.md §12). The manager partitions worker state into N
// shards — each with its own scheduler lock, event loop, and
// dirty-mark machinery — and every spec (task or invocation) is routed
// to exactly one shard at submission. This package owns the routing
// rules, shared verbatim by the real manager and the simulator's
// sharded replay driver so the differential harness can prove the two
// engines route identically:
//
//   - A worker's home shard is hashring.Partition(workerID, N) — a
//     pure function of the ID, so both engines agree without
//     coordination.
//   - Tasks route to the shard owning the task key's ring-preferred
//     live worker (Owner): the per-shard ring walk then starts at the
//     same worker the unsharded ring walk would have chosen.
//   - Invocations round-robin across shards that have live workers
//     (RouteSpec): invocations of one library are interchangeable, so
//     spreading them is pure load balancing.
//   - With no live workers anywhere, every rule parks the spec in its
//     park key's home shard — a pure function, so re-routing on the
//     first join finds it deterministically. The rules never fail.
//
// The Router holds no spec state and takes no shard locks — it is a
// read-mostly membership index. Cross-shard spec migration (a shard
// losing its last worker forwards its queues) is driven by the engines
// themselves, using these routing rules to pick targets.
package shardplane

import (
	"sync"

	"repro/internal/hashring"
)

// DefaultShards is the dispatch plane's default partition count. It is
// a fixed constant — not derived from the machine — so decision traces
// are reproducible across hosts.
const DefaultShards = 8

// Router maps workers and specs to shards. Safe for concurrent use.
type Router struct {
	mu      sync.RWMutex
	n       int
	ring    *hashring.Ring
	members map[string]bool
	live    []int // live worker count per shard
	alive   []int // sorted shard indexes with live > 0
}

// NewRouter builds a router over n shards (n < 1 defaults to
// DefaultShards).
func NewRouter(n int) *Router {
	if n < 1 {
		n = DefaultShards
	}
	return &Router{
		n:       n,
		ring:    hashring.New(0),
		members: map[string]bool{},
		live:    make([]int, n),
	}
}

// Shards returns the partition count.
func (r *Router) Shards() int { return r.n }

// ShardOf returns workerID's home shard — a pure function of the ID.
func (r *Router) ShardOf(workerID string) int {
	return hashring.Partition(workerID, r.n)
}

// Add registers a live worker. Reports whether membership changed.
func (r *Router) Add(workerID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[workerID] {
		return false
	}
	r.members[workerID] = true
	r.ring.Add(workerID)
	r.live[hashring.Partition(workerID, r.n)]++
	r.recomputeAlive()
	return true
}

// Remove unregisters a worker. Reports whether membership changed.
func (r *Router) Remove(workerID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[workerID] {
		return false
	}
	delete(r.members, workerID)
	r.ring.Remove(workerID)
	r.live[hashring.Partition(workerID, r.n)]--
	r.recomputeAlive()
	return true
}

func (r *Router) recomputeAlive() {
	r.alive = r.alive[:0]
	for s := 0; s < r.n; s++ {
		if r.live[s] > 0 {
			r.alive = append(r.alive, s)
		}
	}
}

// Live reports how many live workers the router knows.
func (r *Router) Live() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// LiveIn reports how many live workers shard s holds.
func (r *Router) LiveIn(s int) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.live[s]
}

// Owner routes a key to the shard of its ring-preferred live worker,
// parking it in the key's home shard when no worker is live anywhere.
func (r *Router) Owner(key string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id := r.ring.Lookup(key)
	if id == "" {
		return r.park(key)
	}
	return hashring.Partition(id, r.n)
}

// RouteSpec round-robins a spec ID across shards with live workers,
// parking it in park's home shard when no worker is live anywhere.
func (r *Router) RouteSpec(id int64, park string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.alive) == 0 {
		return r.park(park)
	}
	if id < 0 {
		id = -id
	}
	return r.alive[int(id)%len(r.alive)]
}

// RouteSpecTenant routes one tenant's seq-th drained spec across the
// shards with live workers: a per-tenant round-robin whose start is a
// pure hash of the tenant name. Each tenant's cursor advances with its
// own drain count — not the global spec ID — so one tenant's burst
// sweeps every live shard evenly no matter how the global ID sequence
// interleaves with other tenants, and no shard's intake can be
// monopolized. With no worker live anywhere the spec parks in park's
// home shard.
func (r *Router) RouteSpecTenant(tenant string, seq int64, park string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.alive) == 0 {
		return r.park(park)
	}
	if seq < 0 {
		seq = -seq
	}
	off := int64(tenantHash(tenant) % uint32(len(r.alive)))
	return r.alive[int((off+seq)%int64(len(r.alive)))]
}

// tenantHash is FNV-1a over the tenant name — a fixed, seedless hash
// so both engines and every host agree on each tenant's shard offset.
func tenantHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// park returns the key's home shard for specs routed while no worker
// is live.
func (r *Router) park(key string) int {
	return hashring.Partition(key, r.n)
}

// NextAlive returns the first shard with live workers strictly after
// `after` in cyclic shard-index order, excluding `after` itself — the
// overflow-forwarding rule: work a shard cannot place locally hops to
// the next live shard, visiting every live shard within n-1 hops. ok
// is false when no *other* shard has live workers.
func (r *Router) NextAlive(after int) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := 1; i < r.n; i++ {
		s := (after + i) % r.n
		if r.live[s] > 0 {
			return s, true
		}
	}
	return 0, false
}

// MergeTraces is the deterministic merge rule for per-shard decision
// traces: concatenate in shard-index order. Within a shard the trace
// is already the shard's own deterministic decision order; across
// shards no order is defined (the shards are independent loops), so
// the merge pins one.
func MergeTraces(perShard [][]string) []string {
	var out []string
	for _, t := range perShard {
		out = append(out, t...)
	}
	return out
}
