// Package manager implements the TaskVine manager: it accepts worker
// connections, distributes content-addressed files (directly or via
// peer spanning trees, §3.3), schedules stateless tasks and stateful
// invocations, deploys library instances on demand around a hash ring
// of workers, evicts empty libraries to reclaim resources (§3.5.2),
// and retrieves results.
//
// The dispatch plane is sharded (DESIGN.md §12): worker state is
// partitioned across N shards, each with its own scheduler lock, event
// loop, and dirty-mark/coalesced-wake machinery. Every spec is routed
// to exactly one shard at submission (internal/shardplane owns the
// routing rules, shared with the simulator's sharded replay driver).
// Cross-shard concerns — spec routing, evacuating a shard that lost
// its last worker, parked work meeting its first worker — go through
// explicit message paths that never hold two shard locks at once.
//
// Within a shard, scheduling is incremental: every event records which
// queues it could unblock (dirty marks, index.go) and the wake loop
// runs one coalesced pass over exactly those queues. Each pass plans
// placements in batches — one policy call plans K placements with
// strict sequential equivalence (internal/policy batch entry points) —
// so pass setup amortizes over the queue.
package manager

import (
	"fmt"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/proto"
	"repro/internal/shardplane"
)

// Options configures a manager.
type Options struct {
	// Name labels the manager (logs only).
	Name string
	// Shards partitions the dispatch plane (DESIGN.md §12): worker
	// state splits across this many independent scheduler shards, each
	// with its own lock, event loop, and dirty marks. Zero defaults to
	// shardplane.DefaultShards; 1 recovers the single-loop manager.
	Shards int
	// PeerTransfers enables worker-to-worker distribution (Figure 3b);
	// off means every byte flows from the manager (Figure 3a).
	PeerTransfers bool
	// PeerTransferCap is the per-worker cap N on concurrent outbound
	// transfers, avoiding sinks in the spanning tree (§3.3). Zero
	// defaults to 3.
	PeerTransferCap int
	// ClusterAware prefers same-cluster peers as transfer sources
	// (Figure 3c).
	ClusterAware bool
	// EvictEmptyLibraries enables reclaiming workers occupied by idle
	// libraries when another library needs the space (§3.5.2). Defaults
	// to true via New.
	EvictEmptyLibraries bool
	// ResultBuffer sizes the results channel (default 4096).
	ResultBuffer int
	// MaxRetries bounds how many times one task or invocation is
	// retried after infrastructure failures; worker-crash requeues and
	// retryable worker errors both draw on the same per-spec budget.
	// Zero defaults to 3; negative disables retries entirely.
	MaxRetries int
	// RetryBaseDelay is the backoff before the first retry of a failed
	// (but retryable) result; it doubles on each subsequent retry up
	// to RetryMaxDelay, with a deterministic spec-derived jitter so a
	// mass failure does not retry in lockstep. Zero defaults to 50ms.
	// Crash requeues skip the backoff — the failed worker is already
	// gone.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff. Zero defaults to 2s.
	RetryMaxDelay time.Duration
	// RefOwnedBytesCap bounds the owned (holder-of-record, cache-tier)
	// proxy-object bytes per worker (DESIGN.md §15): a producer pushed
	// over the cap by a new by-ref result spills its oldest owned
	// objects to the shared filesystem tier. Zero — the default — means
	// unbounded: no spills, every ref stays cache-tier on its producer.
	RefOwnedBytesCap int64
	// Tenants, when non-empty, activates the submission plane
	// (DESIGN.md §14): specs carrying a TenantID pass admission
	// control, queue per tenant, and reach the shards in weighted
	// fair-share order. Entries are normalized (sorted by name,
	// weights clamped) via core.NormalizeTenants. Empty — the default
	// — keeps the plane entirely off: single-tenant submission is
	// byte-for-byte the old path.
	Tenants []core.TenantSpec
	// DecisionTrace, when set, enables decision tracing (differential
	// and golden tests). With Shards == 1 every decision lands in this
	// recorder — the legacy single-loop contract. With Shards > 1 each
	// shard records into its own internal recorder (interleaving all
	// shards into one recorder would be nondeterministic); read them
	// with ShardDecisions or MergedDecisions. nil — the default —
	// keeps tracing entirely off the hot path.
	DecisionTrace *policy.Recorder
}

// Stats counts manager-side activity for tests and experiments. All
// fields are maintained with atomic adds so Stats() never takes a
// scheduler lock.
type Stats struct {
	DirectTransfers   int64 // manager→worker file sends
	PeerTransfers     int64 // worker→worker file sends
	LibrariesDeployed int64
	LibrariesEvicted  int64
	TasksDone         int64
	InvocationsDone   int64
	Failures          int64 // final failures delivered to the application
	Requeued          int64 // specs requeued because their worker died
	Retries           int64 // retryable failed results re-dispatched
	Restaged          int64 // failed peer fetches re-staged from the manager
	SchedulePasses    int64 // coalesced scheduling passes executed
	CoalescedWakeups  int64 // wakeups absorbed by an already-running pass
	WorkerLogs        int64 // worker-side diagnostics received (MsgLog), e.g. protocol decode errors
	SendQueueDrops    int64 // worker connections dropped because their outbound queue overflowed
	ShardForwards     int64 // specs moved across shards (evacuation, parked work meeting its first worker)
	SubmitsShed       int64 // submissions rejected by admission control (tenant queue bound hit)
	SubmitsThrottled  int64 // submissions accepted with a backpressure verdict (quota or queue pressure)
	FairDrains        int64 // specs released from tenant plane queues to shard intakes

	// Proxy-object (pass-by-reference) data plane accounting (§15).
	// BytesThroughManager counts inline result payload bytes that
	// transited the manager; BytesByRef counts result bytes that stayed
	// on their producing workers with only the handle traveling — the
	// headline split the by-ref experiment reports.
	RefResults          int64 // results returned as proxy handles (ownership transfers)
	RefTransfers        int64 // consumer ref fetches sourced worker→worker
	RefSpills           int64 // owned objects demoted to the shared tier
	RefPromotes         int64 // shared-tier objects promoted back to a cache-tier owner
	RefRehomes          int64 // refs re-homed (or tier-demoted) after their owner died
	RefLost             int64 // refs with no surviving copy after owner death
	BytesThroughManager int64 // inline result bytes relayed through the manager
	BytesByRef          int64 // result bytes that never transited the manager

	// Coalesced-writer accounting: each per-worker sender goroutine
	// drains its queue greedily into the connection's pending buffer
	// and issues one flush per drain batch, so FramesSent/FlushBatches
	// is the mean frames-per-write — the wire path's syscall
	// amortization factor. MaxFlushBatch is the largest single batch.
	FramesSent    int64
	FlushBatches  int64
	MaxFlushBatch int64
}

// Manager coordinates workers across the sharded dispatch plane.
type Manager struct {
	opts Options
	ln   net.Listener

	// shards partition all worker and spec state; router owns the
	// worker→shard and spec→shard routing rules (shared with the
	// simulator's sharded replay driver).
	shards []*shard
	router *shardplane.Router

	// libMu guards the registered-library table, read by every shard's
	// validation path and written only by RegisterLibrary.
	libMu    sync.RWMutex
	libSpecs map[string]*core.LibrarySpec

	// plane is the multi-tenant submission plane (nil without
	// Options.Tenants); planeActive keeps the single-tenant hot path's
	// tenancy cost to one predictable branch.
	plane       *submitPlane
	planeActive atomic.Bool

	// refs is the proxy-object plane (refplane.go): the global catalog
	// of pass-by-reference results and the decision stream over it.
	refs *refPlane

	nextID atomic.Int64
	closed atomic.Bool
	stats  Stats

	// obsMu guards the global replica registry: which workers hold a
	// confirmed copy of each object (holders), and the live-worker
	// table with each worker's cross-shard outbound transfer count
	// (peers). Shards maintain it with per-transition deltas; it backs
	// both ObjectHolders and cross-shard peer sourcing — a shard whose
	// own view has no holder of an object can still assign a peer
	// fetch from a holder in another shard (transport-level, outside
	// the policy trace).
	obsMu   sync.RWMutex
	holders map[string]map[string]bool
	peers   map[string]*peerSource

	// catMu guards the global staging catalog: every FileSpec any
	// shard has staged, so a failed peer fetch — or a deploy planned
	// in a shard that never staged the object — can always recover
	// from the manager's own link.
	catMu   sync.RWMutex
	catalog map[string]core.FileSpec

	// starveMu guards the set of starving shards: shards resting
	// queued work that cannot place locally and that no local event
	// will unblock. Any capacity-freeing event anywhere (a result, a
	// ready instance, membership change) nudges them — the
	// shard-crossing signal replacing the single loop's global view
	// of freed capacity. nStarving mirrors the set size so the hot
	// path pays one atomic load when the set is empty.
	starveMu  sync.Mutex
	starving  map[int]bool
	nStarving atomic.Int32

	results chan core.Result
	wg      sync.WaitGroup
}

// peerSource is a live worker's entry in the global replica registry:
// the connection (for its data address and send queue) plus how many
// cross-shard peer fetches it is currently serving. Local-shard
// transfer slots are accounted in the shard's policy view; cross-shard
// assignments use this counter, under the same cap.
type peerSource struct {
	w   *workerState
	out int
}

// shard is one partition of the dispatch plane: a worker table, a
// policy view over exactly those workers, the spec queues routed here,
// and the dirty-mark/coalesced-wake scheduler that drains them. All
// mutable state below mu is touched only with mu held; shards never
// take each other's locks (cross-shard movement goes through the
// coordinator with at most one shard lock held at a time).
type shard struct {
	m   *Manager
	idx int

	mu          sync.Mutex
	workers     map[string]*workerState
	libFailures map[string]int
	// libInfraFailures counts consecutive retryable (infrastructure)
	// deployment failures per library, bounded separately from
	// broken-setup failures. Like libFailures it is per shard: a
	// library quarantines independently in each partition.
	libInfraFailures map[string]int
	// installing counts library instances deployed but not yet acked,
	// per library. Each queued invocation claims one in-flight install
	// before the scheduler plans a new deploy, so a burst of events
	// during a slow install cannot over-provision instances beyond the
	// queue length.
	installing   map[string]int
	pendingTasks []pendingTask
	// pendingInvs queues invocations per library, so an event touching
	// one library reconsiders only that library's queue. Order within a
	// queue is submission order.
	pendingInvs     map[string][]pendingInv
	pendingInvCount int
	inflight        map[int64]*inflightEntry
	// backoffs counts retries sitting in their backoff timers — work
	// that is in neither pendingTasks/pendingInvs nor inflight.
	backoffs int

	// ---- scheduler view (policy core) ----

	// view is the cluster snapshot every scheduling decision reads: the
	// shard's worker table, its placement ring, and the derived indexes
	// (Holders, PendingCopies, ReadyFree, LibFull). index.go keeps it
	// current; internal/policy decides against it; schedule.go executes.
	// Peer-transfer sources are shard-local by construction: PickSource
	// only sees this shard's holders.
	view *policy.ClusterView
	// rec, when non-nil, records this shard's decision trace.
	rec *policy.Recorder
	// objWaiters: object ID → queues blocked on its first copy.
	objWaiters map[string]*objWaiter

	// ---- dirty marks for the coalesced wake loop ----
	dirtyTasks   bool
	dirtyAllLibs bool
	dirtyLibs    map[string]bool
	// libScratch is the wake loop's reusable sorted-key buffer for
	// dirtyLibs — the map and this slice are retained across passes so
	// the steady-state pass allocates nothing.
	libScratch []string
	// reqScratch/planScratch/invScratch are the scheduling passes'
	// reusable batch buffers (requests in, decisions out). Each pass
	// truncates and refills them under the shard lock, so steady-state
	// planning allocates no slices.
	reqScratch  []policy.TaskReq
	planScratch []policy.PlaceTask
	invScratch  []policy.PlaceInvocation
	// freeInflight recycles invocation inflight entries (only those —
	// task entries can be referenced by ackWaiters past completion;
	// invocation entries never register there).
	freeInflight []*inflightEntry

	// ---- lock-free submit intake (MPSC) ----

	// intake is a Treiber stack submitters push onto without touching
	// mu, so SubmitInvocation/Submit never contend with a running wake
	// pass. The wake loop swaps the whole stack out under mu and
	// replays it in FIFO (reversed) order into the pending queues.
	intake atomic.Pointer[intakeNode]
	// wakeState is the lock-free coalescing latch replacing the old
	// mu-guarded scheduling flag: wakeIdle (no loop running),
	// wakeRunning (a loop is draining), wakeRerun (a loop is draining
	// and at least one wake arrived since its last pass — it must run
	// again before going idle).
	wakeState atomic.Int32
}

const (
	wakeIdle int32 = iota
	wakeRunning
	wakeRerun
)

// intakeNode is one submitted spec waiting in a shard's intake stack.
// Nodes are pooled: the submit path must not trade its lock for an
// allocation per spec.
type intakeNode struct {
	next   *intakeNode
	isTask bool
	task   pendingTask
	inv    pendingInv
}

var intakeNodePool = sync.Pool{New: func() any { return new(intakeNode) }}

// pushIntake publishes one node onto the shard's intake stack —
// multiple producers, lock-free.
func (s *shard) pushIntake(n *intakeNode) {
	for {
		old := s.intake.Load()
		n.next = old
		if s.intake.CompareAndSwap(old, n) {
			return
		}
	}
}

// drainIntakeLocked moves every spec published to the intake stack
// into the shard's pending queues (marking the matching dirty bits).
// Called with s.mu held; the single consumer. The swap claims the
// whole stack, so concurrent pushers are never blocked; reversing it
// restores submission (FIFO) order.
func (s *shard) drainIntakeLocked() {
	head := s.intake.Swap(nil)
	if head == nil {
		return
	}
	var rev *intakeNode
	for head != nil {
		next := head.next
		head.next = rev
		rev = head
		head = next
	}
	for n := rev; n != nil; {
		next := n.next
		if n.isTask {
			s.pendingTasks = append(s.pendingTasks, n.task)
			s.markTasksDirtyLocked()
		} else {
			s.enqueueInvLocked(n.inv)
		}
		*n = intakeNode{} // drop spec pointers before pooling
		intakeNodePool.Put(n)
		n = next
	}
}

// pendingTask pairs a queued task with its precomputed ring key and
// its retry state. The retry count and avoid preference travel with
// the spec so it can migrate between shards without losing them.
type pendingTask struct {
	t       *core.TaskSpec
	key     string
	retries int
	avoid   string
	// hops counts overflow forwards across shards (not evacuations):
	// a spec no shard can place stops circulating after visiting every
	// shard, until a membership change or a starvation nudge resets it.
	hops int
}

// pendingInv pairs a queued invocation with its retry state.
type pendingInv struct {
	inv     *core.InvocationSpec
	retries int
	avoid   string
	hops    int
}

type inflightEntry struct {
	worker  string
	library string // "" for plain tasks
	ringKey string // tasks only: consistent-hash key, reused on requeue
	task    *core.TaskSpec
	inv     *core.InvocationSpec
	retries int // re-dispatches so far (crash requeues + retryable failures)
	sentAt  time.Time
	// waiting holds object IDs staged for this dispatch whose FileAck
	// has not arrived yet; the last ack stamps the transfer duration.
	waiting  map[string]bool
	transfer float64 // dispatch→last FileAck, seconds
}

type outMsg struct {
	t proto.MsgType
	v any
	// bulk frames carry v as a JSON header and payload as raw bytes
	// (proto.SendBulk) — no base64, no second buffer.
	bulk    bool
	payload []byte
}

type workerState struct {
	id    string
	hello proto.Hello
	conn  *proto.Conn
	nc    net.Conn
	sendq chan outMsg
	// drops points at the shared Stats.SendQueueDrops counter so a
	// queue-overflow disconnect is counted, not silent.
	drops *int64
	// v is this worker's entry in the policy view: resources, cached
	// and in-flight files, transfer slots, liveness. index.go binds it
	// at registration and every handler reports transitions through it.
	v *policy.WorkerView
	// fetchSources maps object ID → source worker of an in-flight peer
	// fetch, to release the source's transfer slot on ack.
	fetchSources map[string]string
	// ackWaiters maps object ID → dispatches on this worker whose
	// TransferTime is waiting for that object's FileAck.
	ackWaiters map[string][]*inflightEntry
	libs       map[string]*libInstance
}

// libInstance is one deployed library instance: the policy-visible
// state (embedded view, shared by pointer with the ClusterView) plus
// engine-only bookkeeping.
type libInstance struct {
	policy.LibraryView
	instance string
	served   int64
}

// sendQueueSize derives a worker's outbound queue depth from its slot
// count: each occupied slot can have a dispatch, its staging messages,
// and a few control frames outstanding, with generous headroom for
// bursts. The old flat 16384 wasted memory on small workers and still
// had no principled relation to how much the scheduler can reasonably
// have in flight to one worker.
func sendQueueSize(cores int) int {
	const perSlot, floor = 128, 1024
	n := cores * perSlot
	if n < floor {
		n = floor
	}
	return n
}

// New creates a manager with defaults applied.
func New(opts Options) *Manager {
	if opts.Shards <= 0 {
		opts.Shards = shardplane.DefaultShards
	}
	if opts.PeerTransferCap <= 0 {
		opts.PeerTransferCap = 3
	}
	if opts.ResultBuffer <= 0 {
		opts.ResultBuffer = 4096
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 3
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 50 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 2 * time.Second
	}
	m := &Manager{
		opts:     opts,
		router:   shardplane.NewRouter(opts.Shards),
		libSpecs: map[string]*core.LibrarySpec{},
		holders:  map[string]map[string]bool{},
		peers:    map[string]*peerSource{},
		catalog:  map[string]core.FileSpec{},
		starving: map[int]bool{},
		results:  make(chan core.Result, opts.ResultBuffer),
	}
	m.shards = make([]*shard, opts.Shards)
	for i := range m.shards {
		var rec *policy.Recorder
		if opts.DecisionTrace != nil {
			if opts.Shards == 1 {
				rec = opts.DecisionTrace
			} else {
				rec = &policy.Recorder{}
			}
		}
		m.shards[i] = &shard{
			m:                m,
			idx:              i,
			workers:          map[string]*workerState{},
			libFailures:      map[string]int{},
			libInfraFailures: map[string]int{},
			installing:       map[string]int{},
			pendingInvs:      map[string][]pendingInv{},
			inflight:         map[int64]*inflightEntry{},
			view: policy.NewClusterView(policy.Options{
				PeerTransfers:       opts.PeerTransfers,
				PeerTransferCap:     opts.PeerTransferCap,
				ClusterAware:        opts.ClusterAware,
				EvictEmptyLibraries: opts.EvictEmptyLibraries,
			}),
			rec:        rec,
			objWaiters: map[string]*objWaiter{},
		}
	}
	if len(opts.Tenants) > 0 {
		m.plane = newSubmitPlane(m, opts.Tenants, opts.DecisionTrace != nil)
		m.planeActive.Store(true)
	}
	m.refs = newRefPlane(m, opts.RefOwnedBytesCap, opts.DecisionTrace != nil)
	return m
}

// NewDefault creates a manager with peer transfers and empty-library
// eviction enabled — the paper's recommended configuration.
func NewDefault() *Manager {
	return New(Options{PeerTransfers: true, EvictEmptyLibraries: true})
}

// shardFor returns a worker's home shard — a pure function of its ID.
func (m *Manager) shardFor(workerID string) *shard {
	return m.shards[m.router.ShardOf(workerID)]
}

// Shards reports the dispatch plane's partition count.
func (m *Manager) Shards() int { return len(m.shards) }

// ShardDecisions returns each shard's recorded decision trace, in
// shard-index order. Empty unless Options.DecisionTrace was set.
func (m *Manager) ShardDecisions() [][]string {
	out := make([][]string, len(m.shards))
	for i, s := range m.shards {
		if s.rec != nil {
			out[i] = append([]string(nil), s.rec.Decisions...)
		}
	}
	return out
}

// MergedDecisions returns the per-shard decision traces merged by the
// deterministic rule shared with the simulator's sharded replay
// (shardplane.MergeTraces: concatenation in shard-index order), with
// the global streams — the submission plane's admission/drain trace
// and the ref plane's ownership/resolve trace, when present —
// prepended in that order.
func (m *Manager) MergedDecisions() []string {
	merged := shardplane.MergeTraces(m.ShardDecisions())
	if refs := m.RefDecisions(); len(refs) > 0 {
		merged = append(refs, merged...)
	}
	if plane := m.PlaneDecisions(); len(plane) > 0 {
		return append(plane, merged...)
	}
	return merged
}

// PlaneDecisions returns the submission plane's recorded trace: one
// admit line per submission, one pick line per fair-share drain.
// Empty without Options.Tenants or Options.DecisionTrace.
func (m *Manager) PlaneDecisions() []string {
	return m.plane.Decisions()
}

// Listen starts accepting worker connections on 127.0.0.1 and returns
// the address workers should dial.
func (m *Manager) Listen() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("manager: listen: %w", err)
	}
	m.ln = ln
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.serveWorker(nc)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Results is the stream of completed task/invocation results.
func (m *Manager) Results() <-chan core.Result { return m.results }

// Stats returns a snapshot of manager counters without touching any
// scheduler lock.
func (m *Manager) Stats() Stats {
	return Stats{
		DirectTransfers:   atomic.LoadInt64(&m.stats.DirectTransfers),
		PeerTransfers:     atomic.LoadInt64(&m.stats.PeerTransfers),
		LibrariesDeployed: atomic.LoadInt64(&m.stats.LibrariesDeployed),
		LibrariesEvicted:  atomic.LoadInt64(&m.stats.LibrariesEvicted),
		TasksDone:         atomic.LoadInt64(&m.stats.TasksDone),
		InvocationsDone:   atomic.LoadInt64(&m.stats.InvocationsDone),
		Failures:          atomic.LoadInt64(&m.stats.Failures),
		Requeued:          atomic.LoadInt64(&m.stats.Requeued),
		Retries:           atomic.LoadInt64(&m.stats.Retries),
		Restaged:          atomic.LoadInt64(&m.stats.Restaged),
		SchedulePasses:    atomic.LoadInt64(&m.stats.SchedulePasses),
		CoalescedWakeups:  atomic.LoadInt64(&m.stats.CoalescedWakeups),
		WorkerLogs:        atomic.LoadInt64(&m.stats.WorkerLogs),
		SendQueueDrops:    atomic.LoadInt64(&m.stats.SendQueueDrops),
		ShardForwards:     atomic.LoadInt64(&m.stats.ShardForwards),
		SubmitsShed:       atomic.LoadInt64(&m.stats.SubmitsShed),
		SubmitsThrottled:  atomic.LoadInt64(&m.stats.SubmitsThrottled),
		FairDrains:        atomic.LoadInt64(&m.stats.FairDrains),
		RefResults:        atomic.LoadInt64(&m.stats.RefResults),
		RefTransfers:      atomic.LoadInt64(&m.stats.RefTransfers),
		RefSpills:         atomic.LoadInt64(&m.stats.RefSpills),
		RefPromotes:       atomic.LoadInt64(&m.stats.RefPromotes),
		RefRehomes:        atomic.LoadInt64(&m.stats.RefRehomes),
		RefLost:           atomic.LoadInt64(&m.stats.RefLost),

		BytesThroughManager: atomic.LoadInt64(&m.stats.BytesThroughManager),
		BytesByRef:          atomic.LoadInt64(&m.stats.BytesByRef),
		FramesSent:          atomic.LoadInt64(&m.stats.FramesSent),
		FlushBatches:        atomic.LoadInt64(&m.stats.FlushBatches),
		MaxFlushBatch:       atomic.LoadInt64(&m.stats.MaxFlushBatch),
	}
}

// WorkersConnected returns the number of live workers.
func (m *Manager) WorkersConnected() int {
	return m.router.Live()
}

// WaitForWorkers blocks until at least n workers are connected or the
// timeout elapses.
func (m *Manager) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if m.WorkersConnected() >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("manager: only %d of %d workers connected after %v", m.WorkersConnected(), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Shutdown stops the manager and tells all workers to exit.
func (m *Manager) Shutdown() {
	if m.closed.Swap(true) {
		return
	}
	for _, s := range m.shards {
		s.mu.Lock()
		for _, id := range core.SortedKeys(s.workers) {
			s.workers[id].enqueue(outMsg{t: proto.MsgShutdown, v: struct{}{}})
		}
		s.mu.Unlock()
	}
	if m.ln != nil {
		m.ln.Close()
	}
}

// RegisterLibrary makes a library known to the manager. Instances are
// deployed to workers on demand when invocations arrive (§3.5.2).
func (m *Manager) RegisterLibrary(spec *core.LibrarySpec) error {
	if spec.Name == "" {
		return fmt.Errorf("manager: library needs a name")
	}
	if len(spec.Functions) == 0 {
		return fmt.Errorf("manager: library %q has no functions", spec.Name)
	}
	m.libMu.Lock()
	defer m.libMu.Unlock()
	if _, dup := m.libSpecs[spec.Name]; dup {
		return fmt.Errorf("manager: library %q already registered", spec.Name)
	}
	m.libSpecs[spec.Name] = spec
	return nil
}

// libSpec looks up a registered library.
func (m *Manager) libSpec(name string) (*core.LibrarySpec, bool) {
	m.libMu.RLock()
	spec, ok := m.libSpecs[name]
	m.libMu.RUnlock()
	return spec, ok
}

// ---- spec routing (the cross-shard submit path) ----

// Submit enqueues a stateless task and returns its ID. A task naming
// a registered tenant enters through the submission plane (admission
// control, per-tenant queue, fair-share release); everything else —
// no TenantID, no plane, or an unregistered tenant — routes directly.
func (m *Manager) Submit(t *core.TaskSpec) int64 {
	t.ID = m.nextID.Add(1)
	pt := pendingTask{t: t, key: taskRingKey(t.ID)}
	if t.TenantID != "" && m.planeActive.Load() &&
		m.plane.submit(t.TenantID, planeItem{isTask: true, task: pt}, t.ID) {
		return t.ID
	}
	m.routeTask(pt)
	return t.ID
}

// SubmitInvocation enqueues a FunctionCall and returns its ID. Tenant
// handling matches Submit.
func (m *Manager) SubmitInvocation(inv *core.InvocationSpec) int64 {
	inv.ID = m.nextID.Add(1)
	if inv.TenantID != "" && m.planeActive.Load() &&
		m.plane.submit(inv.TenantID, planeItem{inv: pendingInv{inv: inv}}, inv.ID) {
		return inv.ID
	}
	m.routeInv(pendingInv{inv: inv})
	return inv.ID
}

// routeTask delivers a task to the shard owning its ring key — or, in
// an empty cluster, parks it in the key's home shard until the first
// worker joins (shardplane routing rules). The hand-off is lock-free:
// the spec goes onto the shard's intake stack and the wake latch does
// the rest, so a submit burst never contends with a running pass.
func (m *Manager) routeTask(pt pendingTask) {
	s := m.shards[m.router.Owner(pt.key)]
	n := intakeNodePool.Get().(*intakeNode)
	n.isTask, n.task = true, pt
	s.pushIntake(n)
	s.wake()
}

// routeInv delivers an invocation to a live shard by round-robin over
// its spec ID — invocations of one library are interchangeable, so
// spreading them across shards is pure load balancing. In an empty
// cluster it parks in the library's home shard. Lock-free hand-off,
// like routeTask.
func (m *Manager) routeInv(pi pendingInv) {
	s := m.shards[m.router.RouteSpec(pi.inv.ID, pi.inv.Library)]
	n := intakeNodePool.Get().(*intakeNode)
	n.isTask, n.inv = false, pi
	s.pushIntake(n)
	s.wake()
}

// forwardInvQueue moves one library's whole pending queue into a
// target shard, preserving order. Whole-queue moves (rather than
// per-spec re-routing) are the rule the simulator's sharded replay can
// mirror exactly — its invocation pool is keyless.
func (m *Manager) forwardInvQueue(idx int, lib string, q []pendingInv) {
	s := m.shards[idx]
	s.mu.Lock()
	s.pendingInvs[lib] = append(s.pendingInvs[lib], q...)
	s.pendingInvCount += len(q)
	s.markLibDirtyLocked(lib)
	s.mu.Unlock()
	atomic.AddInt64(&m.stats.ShardForwards, int64(len(q)))
	s.wake()
}

// Collect drains n results from the result stream.
func (m *Manager) Collect(n int, timeout time.Duration) ([]core.Result, error) {
	out := make([]core.Result, 0, n)
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case r := <-m.results:
			out = append(out, r)
		case <-deadline:
			return out, fmt.Errorf("manager: collected %d of %d results before timeout", len(out), n)
		}
	}
	return out, nil
}

// ---- worker connection handling ----

func (w *workerState) enqueue(msg outMsg) {
	select {
	case w.sendq <- msg:
	default:
		// Queue full: drop the connection rather than deadlock the
		// scheduler; the reader loop will clean up. Count and log the
		// drop — a silent disconnect here looks exactly like a worker
		// crash from the outside and is otherwise undiagnosable.
		if w.drops != nil {
			atomic.AddInt64(w.drops, 1)
		}
		log.Printf("manager: worker %s outbound queue full (%d); dropping connection", w.id, cap(w.sendq))
		w.nc.Close()
	}
}

// adoptWorker registers a connected worker in its home shard and the
// routing fabric. It reports false (without registering) for duplicate
// IDs or a closed manager.
func (m *Manager) adoptWorker(w *workerState) bool {
	s := m.shardFor(w.id)
	s.mu.Lock()
	if _, dup := s.workers[w.id]; dup || m.closed.Load() {
		s.mu.Unlock()
		return false
	}
	s.registerWorkerLocked(w)
	// Fresh capacity: pending tasks and every waiting library queue in
	// this shard may now be placeable here.
	s.wakeCapacityLocked()
	s.mu.Unlock()
	m.peerAdd(w)
	m.router.Add(w.id)
	s.wake()
	// Parked work in workerless shards can now be evacuated here, and
	// work starving in shards this worker doesn't belong to gets its
	// overflow hop budget back so it can reach the new capacity.
	m.wakeParked()
	m.nudgeStarving()
	return true
}

// wakeParked nudges every workerless shard holding queued specs: its
// wake loop will evacuate them to live shards (shard-crossing path).
func (m *Manager) wakeParked() {
	for _, s := range m.shards {
		s.mu.Lock()
		if len(s.workers) == 0 && s.hasPendingLocked() {
			s.wakeCapacityLocked()
			s.mu.Unlock()
			s.wake()
			continue
		}
		s.mu.Unlock()
	}
}

func (m *Manager) serveWorker(nc net.Conn) {
	conn := proto.NewConn(nc)
	t, raw, err := conn.Recv()
	if err != nil || t != proto.MsgHello {
		nc.Close()
		return
	}
	hello, err := proto.Decode[proto.Hello](raw)
	if err != nil || hello.WorkerID == "" {
		nc.Close()
		return
	}

	w := &workerState{
		id:           hello.WorkerID,
		hello:        hello,
		conn:         conn,
		nc:           nc,
		sendq:        make(chan outMsg, sendQueueSize(hello.Resources.Cores)),
		drops:        &m.stats.SendQueueDrops,
		fetchSources: map[string]string{},
		ackWaiters:   map[string][]*inflightEntry{},
		libs:         map[string]*libInstance{},
	}

	if !m.adoptWorker(w) {
		nc.Close()
		return
	}
	s := m.shardFor(w.id)

	// Sender goroutine drains the queue so scheduling never blocks on
	// TCP backpressure. Frames are coalesced: a burst of queued
	// messages is encoded into the connection's pending buffer and
	// flushed in one write syscall once the queue runs momentarily dry.
	done := make(chan struct{})
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			var msg outMsg
			select {
			case msg = <-w.sendq:
			case <-done:
				return
			}
			var batch int64
			yielded := false
			for {
				var err error
				if msg.bulk {
					// SendBulk drains the pending buffer first, so
					// ordering with buffered frames is preserved.
					err = conn.SendBulk(msg.t, msg.v, msg.payload)
				} else {
					err = conn.Buffer(msg.t, msg.v)
				}
				if err != nil {
					nc.Close()
					return
				}
				batch++
				select {
				case msg = <-w.sendq:
					continue
				default:
				}
				// One cooperative yield before flushing lets same-core
				// producers (the scheduler mid-burst) top the queue off,
				// so the flush carries a bigger batch in one write
				// syscall instead of many near-empty ones.
				if !yielded {
					yielded = true
					runtime.Gosched()
					select {
					case msg = <-w.sendq:
						continue
					default:
					}
				}
				break
			}
			if err := conn.Flush(); err != nil {
				nc.Close()
				return
			}
			atomic.AddInt64(&m.stats.FramesSent, batch)
			atomic.AddInt64(&m.stats.FlushBatches, 1)
			for {
				max := atomic.LoadInt64(&m.stats.MaxFlushBatch)
				if batch <= max || atomic.CompareAndSwapInt64(&m.stats.MaxFlushBatch, max, batch) {
					break
				}
			}
		}
	}()

	s.wake()

	// strs interns the identifier strings every completion repeats
	// (worker ID, library instance) — one table per connection, used
	// only by this reader goroutine.
	var strs proto.Interner
	for {
		// RecvReuse: every case decodes (copying what it keeps) before
		// the next receive; nothing below retains the raw payload.
		t, raw, err := conn.RecvReuse()
		if err != nil {
			break
		}
		switch t {
		case proto.MsgFileAck:
			if ack, err := proto.Decode[proto.FileAck](raw); err == nil {
				s.onFileAck(w, ack)
			}
		case proto.MsgLibraryAck:
			if ack, err := proto.Decode[proto.LibraryAck](raw); err == nil {
				s.onLibraryAck(w, ack)
			}
		case proto.MsgResult:
			if res, err := proto.DecodeResultInterned(raw, &strs); err == nil {
				s.onResult(w, res)
			}
		case proto.MsgLog:
			// Worker-side diagnostics (today: protocol decode errors the
			// worker would otherwise swallow). Surface them in the
			// manager's log and count them so tests and operators notice.
			if lm, err := proto.Decode[proto.LogMsg](raw); err == nil {
				atomic.AddInt64(&m.stats.WorkerLogs, 1)
				log.Printf("manager %s: worker %s: %s", m.opts.Name, lm.Worker, lm.Text)
			}
		}
	}
	close(done)
	m.onWorkerGone(w)
	nc.Close()
}

// onWorkerGone tears down a dead worker in its home shard. Crash
// requeues stay in the shard (the rule the simulator's sharded replay
// mirrors); if the shard just lost its last worker, its wake loop
// evacuates the queues to live shards.
// releaseSourceSlotLocked returns a peer-fetch source's transfer
// slot: a live local source's slot lives in the shard view; anything
// else — a holder in another shard — is accounted in the global
// registry (a no-op if that holder died).
func (s *shard) releaseSourceSlotLocked(src string) {
	if sw, live := s.workers[src]; live {
		if sw.v.TransfersOut > 0 {
			sw.v.TransfersOut--
		}
		return
	}
	s.m.releaseRemoteSource(src)
}

func (m *Manager) onWorkerGone(w *workerState) {
	m.router.Remove(w.id)
	m.peerDrop(w.id)
	// Re-home every ref the dead worker owned before requeueing its
	// work: surviving holders adopt ownership (pinning their copies),
	// spilled refs fall back to the durable shared tier, and the rest
	// are declared lost — the traced failure semantics of §15.
	m.refs.rehome(w.id)
	s := m.shardFor(w.id)
	s.mu.Lock()
	// The dead worker may have been the destination of in-flight peer
	// fetches: release each source's transfer slot, or the sources are
	// bled dry one crash at a time until PickSource permanently
	// excludes them and the spanning tree degrades to manager-only
	// sends.
	for id, src := range w.fetchSources { //vinelint:unordered slot releases commute; each entry touches a distinct record
		delete(w.fetchSources, id)
		s.releaseSourceSlotLocked(src)
	}
	// Drop the worker from every index (replicas, ready instances,
	// in-flight copies — waking placements queued behind a first copy
	// that will now never confirm).
	s.dropWorkerLocked(w)
	// Requeue everything that was running there, within each spec's
	// retry budget; a spec that has already exhausted it fails instead
	// of bouncing between crashing workers forever. Requeue in
	// ascending spec-ID order — map iteration order would otherwise
	// make the post-crash schedule nondeterministic, which the
	// differential fidelity harness (and anyone replaying a decision
	// trace) cannot tolerate.
	var lost []int64
	for _, id := range core.SortedKeys(s.inflight) {
		if s.inflight[id].worker == w.id {
			lost = append(lost, id)
		}
	}
	for _, id := range lost {
		e := s.inflight[id]
		delete(s.inflight, id)
		if m.opts.MaxRetries >= 0 && e.retries < m.opts.MaxRetries {
			e.retries++
			atomic.AddInt64(&m.stats.Requeued, 1)
			if e.task != nil {
				s.pendingTasks = append(s.pendingTasks, pendingTask{t: e.task, key: e.ringKey, retries: e.retries, avoid: w.id})
				s.markTasksDirtyLocked()
			} else if e.inv != nil {
				s.enqueueInvLocked(pendingInv{inv: e.inv, retries: e.retries, avoid: w.id})
			}
			continue
		}
		atomic.AddInt64(&m.stats.Failures, 1)
		m.deliver(core.Result{ID: id, Ok: false,
			Err: fmt.Sprintf("manager: worker %s lost and retry budget exhausted", w.id)})
		// Shard lock held: quota returns and the drain runs now, but
		// the wakes park until pump() at the next wake-loop exit.
		if m.planeActive.Load() {
			m.plane.release(specTenant(e), false)
		}
	}
	// Losing a worker changes the ring; anything whose placement was
	// pinned behind this worker's state gets another look.
	s.wakeCapacityLocked()
	s.mu.Unlock()
	s.wake()
	// Membership changed: overflow targets and ring ownership moved,
	// so rested work elsewhere gets its hop budget back.
	m.nudgeStarving()
}

func (s *shard) onFileAck(w *workerState, ack proto.FileAck) {
	s.mu.Lock()
	s.clearPendingLocked(w, ack.ID)
	src, fromPeer := w.fetchSources[ack.ID]
	if fromPeer {
		delete(w.fetchSources, ack.ID)
		s.releaseSourceSlotLocked(src)
	} else if ack.Source != "" {
		// The worker echoes the source the fetch was assigned
		// (proto.FetchFile.Source), so a fetch the manager no longer
		// tracks — its record displaced by recovery — still returns the
		// source's transfer slot instead of bleeding it.
		fromPeer = true
		s.releaseSourceSlotLocked(ack.Source)
	}
	if ack.Ok && ack.Cache {
		s.noteReplicaLocked(w, ack.ID)
		// A confirmed ref replica also registers in the global ref
		// catalog, so later resolves can source from this consumer.
		// No-op for ordinary objects.
		s.m.refs.noteHolder(w.id, ack.ID)
	}
	restaged := false
	if !ack.Ok && w.v.Alive {
		if s.m.refs.isRef(ack.ID) {
			// A ref fetch failed on every source the data plane tried.
			// The manager never held these bytes, so the catalog restage
			// below cannot apply: retract the unreliable replica records
			// and plan a fresh traced resolve against what survives —
			// the owner's pinned copy, the shared tier, or lost.
			restaged = s.restageRefLocked(w, ack.ID)
		} else if fromPeer {
			// The peer fetch failed on every source the data plane tried —
			// the assigned one and the alternates it retried on its own
			// (§4.3). The manager's own link is always a valid source:
			// re-stage directly rather than leaving every dispatch behind
			// this copy to die on "input not staged".
			if fs, known := s.m.catalogGet(ack.ID); known {
				s.directSendLocked(w, fs)
				atomic.AddInt64(&s.m.stats.Restaged, 1)
				restaged = true
			}
		}
	}
	// Stamp staging completion on every dispatch that was waiting for
	// this object on this worker: TransferTime is dispatch→last ack,
	// not the time spent enqueueing messages. The per-worker waiter
	// index hands us exactly those dispatches — unless the copy is
	// being restaged, in which case they are still waiting: the
	// replacement transfer's own ack will settle them.
	if list := w.ackWaiters[ack.ID]; !restaged && len(list) > 0 {
		delete(w.ackWaiters, ack.ID)
		now := time.Now()
		for _, e := range list {
			if e.waiting[ack.ID] {
				delete(e.waiting, ack.ID)
				e.transfer = now.Sub(e.sentAt).Seconds()
			}
		}
	}
	// Whether the copy confirmed (new source available) or failed (the
	// block is gone), everything queued behind this object gets one
	// reconsideration.
	s.wakeObjWaitersLocked(ack.ID)
	s.mu.Unlock()
	s.wake()
}

// maxLibraryFailures is how many consecutive failed deployments a
// library gets before its pending invocations are failed instead of
// retried — a broken context setup would otherwise redeploy forever.
const maxLibraryFailures = 3

// maxLibraryInfraFailures bounds consecutive *retryable* deployment
// failures (inputs lost to stalled transfers, resources exhausted).
// It is deliberately generous: chaos that heals should never
// quarantine a healthy library, but a library whose environment can
// never be staged must eventually fail its invocations cleanly.
const maxLibraryInfraFailures = 20

func (s *shard) onLibraryAck(w *workerState, ack proto.LibraryAck) {
	s.mu.Lock()
	li := w.libs[ack.Library]
	if li != nil {
		if !li.Ready && s.installing[ack.Library] > 0 {
			s.installing[ack.Library]--
		}
		if ack.Ok {
			li.Ready = true
			li.instance = ack.Instance
			s.libFailures[ack.Library] = 0
			s.libInfraFailures[ack.Library] = 0
			s.libSlotsChangedLocked(w, li)
			s.markLibDirtyLocked(ack.Library)
			// A ready instance with no slots in use is an eviction
			// candidate (§3.5.2): other libraries blocked on capacity
			// may now be deployable here.
			if li.SlotsUsed == 0 && s.m.opts.EvictEmptyLibraries {
				s.markAllLibsDirtyLocked()
			}
		} else {
			li.Failed = true
			delete(w.libs, ack.Library)
			s.view.RemoveLibrary(w.v, ack.Library)
			w.v.Commit = w.v.Commit.Sub(li.Res)
			// Infrastructure-caused install failures (inputs lost to a
			// stalled transfer, resources gone) draw on a much larger
			// budget than broken-setup failures: transient chaos should
			// not quarantine a healthy library, but a persistently
			// unstageable one must still fail cleanly instead of
			// redeploying forever.
			if ack.Retryable {
				s.libInfraFailures[ack.Library]++
				if s.libInfraFailures[ack.Library] >= maxLibraryInfraFailures {
					s.failPendingForLibraryLocked(ack.Library, ack.Err)
				}
			} else {
				s.libFailures[ack.Library]++
				if s.libFailures[ack.Library] >= maxLibraryFailures {
					s.failPendingForLibraryLocked(ack.Library, ack.Err)
				}
			}
			// The failed install released resources on this worker.
			s.wakeCapacityLocked()
		}
	}
	s.mu.Unlock()
	s.wake()
	// An instance turning ready (or an install releasing resources)
	// is capacity other shards' starving work may be waiting for.
	s.m.nudgeStarving()
}

// failPendingForLibraryLocked fails every queued invocation of a
// library that cannot be deployed. Caller holds the shard lock.
func (s *shard) failPendingForLibraryLocked(library, reason string) {
	q := s.pendingInvs[library]
	if len(q) == 0 {
		return
	}
	delete(s.pendingInvs, library)
	s.pendingInvCount -= len(q)
	for _, pi := range q {
		atomic.AddInt64(&s.m.stats.Failures, 1)
		s.m.deliver(core.Result{ID: pi.inv.ID, Ok: false,
			Err: fmt.Sprintf("manager: library %q failed to deploy %d times: %s",
				library, maxLibraryFailures, reason)})
		if s.m.planeActive.Load() {
			s.m.plane.release(pi.inv.TenantID, false)
		}
	}
}

func (s *shard) onResult(w *workerState, res core.Result) {
	m := s.m
	s.mu.Lock()
	e, ok := s.inflight[res.ID]
	if ok {
		delete(s.inflight, res.ID)
		res.Metrics.TransferTime += e.transfer
		if res.Ok {
			if res.Ref != nil {
				// Pass-by-reference completion doubles as the ownership
				// transfer (§15): the bytes stayed on the producer, the
				// manager only updates its ref catalog.
				atomic.AddInt64(&m.stats.RefResults, 1)
				atomic.AddInt64(&m.stats.BytesByRef, res.Ref.Size)
				m.refs.noteResult(w.id, res.Ref)
			} else if n := len(res.Value); n > 0 {
				atomic.AddInt64(&m.stats.BytesThroughManager, int64(n))
			}
		}
		if e.task != nil {
			atomic.AddInt64(&m.stats.TasksDone, 1)
			w.v.Commit = w.v.Commit.Sub(e.task.Resources)
			// Cacheable inputs are now resident on that worker.
			for _, in := range e.task.Inputs {
				if in.Cache {
					s.noteReplicaLocked(w, in.Object.ID)
				}
			}
			// Freed resources: tasks and deployments compete for them.
			s.wakeCapacityLocked()
		} else if e.inv != nil {
			atomic.AddInt64(&m.stats.InvocationsDone, 1)
			idle := false
			if li := w.libs[e.library]; li != nil {
				if li.SlotsUsed > 0 {
					li.SlotsUsed--
				}
				li.served++
				idle = li.SlotsUsed == 0
				s.libSlotsChangedLocked(w, li)
			}
			// A freed slot unblocks this library's queue; an instance
			// going fully idle additionally becomes an eviction
			// candidate, which can unblock every other library waiting
			// on capacity (§3.5.2).
			s.markLibDirtyLocked(e.library)
			if idle && m.opts.EvictEmptyLibraries {
				s.markAllLibsDirtyLocked()
			}
		}
	}
	var backoff time.Duration
	retried := false
	if ok && !res.Ok && res.Retryable && m.opts.MaxRetries >= 0 &&
		e.retries < m.opts.MaxRetries && !m.closed.Load() {
		e.retries++
		atomic.AddInt64(&m.stats.Retries, 1)
		s.backoffs++
		backoff = retryBackoff(m.opts.RetryBaseDelay, m.opts.RetryMaxDelay, e.retries, res.ID)
		retried = true
	}
	if ok && !retried && !res.Ok {
		atomic.AddInt64(&m.stats.Failures, 1)
	}
	// The tenant is read before e is recycled: once the lock drops, a
	// schedule pass may reuse the entry for another tenant's spec.
	var tenant string
	if ok && !retried {
		tenant = specTenant(e)
		if e.inv != nil && len(s.freeInflight) < 1024 {
			s.freeInflight = append(s.freeInflight, e)
		}
	}
	s.mu.Unlock()
	if ok && !retried {
		m.deliver(res)
		// Final delivery returns the spec's tenant quota unit; the
		// freed capacity may release queued plane work, drained and
		// woken inline — no shard lock is held here.
		if m.planeActive.Load() {
			m.plane.release(tenant, true)
		}
	}
	if retried {
		s.requeueAfter(e, w.id, backoff)
	}
	s.wake()
	// Freed capacity is a shard-crossing signal: shards starving on
	// unplaceable work get another chance to reach it.
	m.nudgeStarving()
}

// retryBackoff computes the delay before retry attempt n (1-based):
// exponential growth from base, capped, with a deterministic jitter
// derived from the spec ID so a mass failure does not send every
// retry back at the same instant (policy.RetryJitter — pure and
// seedable, so fidelity traces stay stable).
func retryBackoff(base, cap time.Duration, attempt int, specID int64) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= cap {
			d = cap
			break
		}
	}
	if d > cap {
		d = cap
	}
	return time.Duration(policy.RetryJitter(int64(d), specID, attempt))
}

// requeueAfter puts a failed dispatch back on this shard's pending
// queue once its backoff elapses. Requeues stay shard-local — the rule
// the simulator's sharded replay mirrors; if the shard has meanwhile
// lost its workers, the wake loop's evacuation path takes over.
func (s *shard) requeueAfter(e *inflightEntry, avoid string, delay time.Duration) {
	s.m.wg.Add(1)
	time.AfterFunc(delay, func() {
		defer s.m.wg.Done()
		s.mu.Lock()
		s.backoffs--
		if s.m.closed.Load() {
			s.mu.Unlock()
			return
		}
		if e.task != nil {
			s.pendingTasks = append(s.pendingTasks, pendingTask{t: e.task, key: e.ringKey, retries: e.retries, avoid: avoid})
			s.markTasksDirtyLocked()
		} else if e.inv != nil {
			s.enqueueInvLocked(pendingInv{inv: e.inv, retries: e.retries, avoid: avoid})
		}
		s.mu.Unlock()
		s.wake()
	})
}

// deliver pushes a result to the application without ever blocking
// the caller: a full results channel spills into a goroutine instead
// of stalling the worker's reader goroutine (which would stop its
// FileAcks and LibraryAcks from draining). Safe to call with or
// without a shard lock held.
func (m *Manager) deliver(res core.Result) {
	select {
	case m.results <- res:
	default:
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.results <- res
		}()
	}
}

// CheckQuiescence verifies the manager's recovery invariants at rest:
// no pending entry has outlived its transfer, every transfer slot has
// been returned, and no work is queued, in flight, or waiting out a
// retry backoff — in any shard. Chaos tests call this after collecting
// all results; a non-nil error means bookkeeping leaked somewhere
// along a failure path.
func (m *Manager) CheckQuiescence() error {
	if m.planeActive.Load() {
		if err := m.plane.checkQuiescence(); err != nil {
			return err
		}
	}
	for _, s := range m.shards {
		if err := s.checkQuiescence(); err != nil {
			return err
		}
	}
	m.obsMu.RLock()
	defer m.obsMu.RUnlock()
	for _, id := range core.SortedKeys(m.peers) {
		if n := m.peers[id].out; n != 0 {
			return fmt.Errorf("manager: worker %s still holds %d cross-shard transfer slots", id, n)
		}
	}
	return nil
}

func (s *shard) checkQuiescence() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range core.SortedKeys(s.workers) {
		w := s.workers[id]
		if w.v.TransfersOut != 0 {
			return fmt.Errorf("manager: worker %s still holds %d outbound transfer slots", w.id, w.v.TransfersOut)
		}
		if len(w.v.Pending) != 0 {
			return fmt.Errorf("manager: worker %s has %d unacked staged files", w.id, len(w.v.Pending))
		}
		if len(w.fetchSources) != 0 {
			return fmt.Errorf("manager: worker %s has %d dangling fetch-source records", w.id, len(w.fetchSources))
		}
	}
	if n := len(s.view.PendingCopies); n != 0 {
		return fmt.Errorf("manager: shard %d has %d objects still counted as in-flight copies", s.idx, n)
	}
	if n := len(s.inflight); n != 0 {
		return fmt.Errorf("manager: shard %d has %d dispatches still in flight", s.idx, n)
	}
	if n := len(s.pendingTasks) + s.pendingInvCount; n != 0 {
		return fmt.Errorf("manager: shard %d has %d specs still queued", s.idx, n)
	}
	if s.backoffs != 0 {
		return fmt.Errorf("manager: shard %d has %d retries waiting out backoff", s.idx, s.backoffs)
	}
	return nil
}

// LibraryDeployments returns, for each registered library, how many
// instances are currently deployed and their total share values —
// the data behind Figures 10 and 11.
func (m *Manager) LibraryDeployments() (instances int, totalServed int64) {
	for _, s := range m.shards {
		s.mu.Lock()
		for _, w := range s.workers { //vinelint:unordered summing counters commutes
			for _, li := range w.libs { //vinelint:unordered summing counters commutes
				if li.Ready {
					instances++
					totalServed += li.served
				}
			}
		}
		s.mu.Unlock()
	}
	return instances, totalServed
}
