package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/hashring"
	"repro/internal/minipy"
	"repro/internal/pickle"
	"repro/internal/pkgindex"
	"repro/internal/policy"
	"repro/internal/poncho"
	"repro/internal/proto"
	"repro/taskvine"
)

// layerMetrics derives the taskvine, manager, data-plane, worker and
// library numbers of a traced live run. Dispatch and fault counters
// are deltas over the traced timed phase (before → after); the
// distribution and data-plane counters cover the final cluster's
// set-up and cold burst, where the library's context moves.
func (c *cluster) layerMetrics(ms metrics, tr *tracer, ph *phaseStats, before, after engineCounters, ops int64) {
	per := func(d int64) float64 { return float64(d) / float64(max(ops, 1)) }
	ms.set("taskvine.call_us", "us", median(tr.durationsUs("taskvine.call")))
	ms.set("taskvine.submit_task_us", "us", median(tr.durationsUs("taskvine.submit_task")))
	ms.set("taskvine.result_wait_us", "us", median(tr.durationsUs("taskvine.result_wait")))
	ms.set("taskvine.decode_value_us", "us", median(tr.durationsUs("taskvine.decode_value")))
	ms.set("taskvine.spawn_workers_ms", "ms", ms1(c.spawn))
	ms.set("taskvine.create_library_ms", "ms", ms1(c.create))
	ms.set("taskvine.wrap_function_ms", "ms", ms1(c.wrap))
	ms.set("taskvine.install_library_ms", "ms", ms1(c.install))

	a, b := after.mgr, before.mgr
	ms.set("manager.schedule_passes_per_op", "count", per(a.SchedulePasses-b.SchedulePasses))
	ms.set("manager.coalesced_wakeups_per_op", "count", per(a.CoalescedWakeups-b.CoalescedWakeups))
	framesPerFlush := 0.0
	if f := a.FlushBatches - b.FlushBatches; f > 0 {
		framesPerFlush = float64(a.FramesSent-b.FramesSent) / float64(f)
	}
	ms.set("manager.frames_per_flush", "count", framesPerFlush)
	ms.set("manager.max_flush_batch", "count", float64(a.MaxFlushBatch))
	ms.set("manager.shard_forwards_per_op", "count", per(a.ShardForwards-b.ShardForwards))
	ms.set("manager.bytes_through_manager_per_op", "B", per(a.BytesThroughManager-b.BytesThroughManager))
	ms.set("manager.fair_drains_per_op", "count", per(a.FairDrains-b.FairDrains))
	ms.set("manager.submits_throttled", "count", float64(a.SubmitsThrottled-b.SubmitsThrottled))
	ms.set("manager.submits_shed", "count", float64(a.SubmitsShed-b.SubmitsShed))
	ms.set("manager.failures", "count", float64(a.Failures-b.Failures))
	ms.set("manager.retries", "count", float64(a.Retries-b.Retries))
	ms.set("manager.requeued", "count", float64(a.Requeued-b.Requeued))
	ms.set("manager.restaged", "count", float64(a.Restaged-b.Restaged))
	ms.set("manager.send_queue_drops", "count", float64(a.SendQueueDrops-b.SendQueueDrops))

	cold := c.afterCold.mgr
	ms.set("manager.libraries_deployed", "count", float64(cold.LibrariesDeployed))
	ms.set("manager.libraries_evicted", "count", float64(cold.LibrariesEvicted))
	ms.set("manager.direct_transfers", "count", float64(cold.DirectTransfers))
	ms.set("manager.peer_transfers", "count", float64(cold.PeerTransfers))
	peerFrac := 0.0
	if t := cold.DirectTransfers + cold.PeerTransfers; t > 0 {
		peerFrac = float64(cold.PeerTransfers) / float64(t)
	}
	ms.set("manager.peer_transfer_frac", "fraction", peerFrac)

	d := c.afterCold.workers.Data
	ms.set("dataplane.fetches", "count", float64(d.Fetches))
	ms.set("dataplane.deduped", "count", float64(d.Deduped))
	ms.set("dataplane.served", "count", float64(d.Served))
	ms.set("dataplane.alt_source_retries", "count", float64(d.AltSourceRetries))
	ms.set("dataplane.fetch_errors", "count", float64(d.FetchErrors))
	ms.set("worker.protocol_errors", "count", float64(after.workers.ProtocolErrors))

	setPhases(ms, "worker.transfer_ms", "worker.env_ms", "library.setup_ms", "library.exec_us", ph.callPhases)
	setPhases(ms, "task.transfer_ms", "task.env_ms", "task.setup_ms", "task.exec_us", ph.taskPhases)
}

// setOverhead reports the tracing overhead: the traced half's
// throughput against the untraced half's.
func setOverhead(ms metrics, out *output, untracedWin, tracedWin *windows) {
	untraced, traced := median(untracedWin.rate), median(tracedWin.rate)
	ms.set("trace.overhead_frac", "fraction", 1-traced/untraced)
	out.line("tracing overhead: %.6g ops/s untraced, %.6g ops/s traced", untraced, traced)
}

// setPhases reports the median worker-reported phase times of one op
// class (zero when the workload has no op of that class).
func setPhases(ms metrics, transfer, env, setup, exec string, phases []core.InvocationMetrics) {
	pick := func(f func(core.InvocationMetrics) float64) float64 {
		xs := make([]float64, len(phases))
		for i, p := range phases {
			xs[i] = f(p)
		}
		return median(xs)
	}
	ms.set(transfer, "ms", 1e3*pick(func(p core.InvocationMetrics) float64 { return p.TransferTime }))
	ms.set(env, "ms", 1e3*pick(func(p core.InvocationMetrics) float64 { return p.WorkerTime }))
	ms.set(setup, "ms", 1e3*pick(func(p core.InvocationMetrics) float64 { return p.SetupTime }))
	ms.set(exec, "us", 1e6*pick(func(p core.InvocationMetrics) float64 { return p.ExecTime }))
}

func ms1(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// probeValues are a workload's own values, fed to the layer probes.
type probeValues struct {
	ip    *minipy.Interp
	index *pkgindex.Index
	// fn is the invoked function; setup its context setup (nil if none).
	fn, setup *minipy.Func
	args      []minipy.Value
	spec      *core.LibrarySpec
}

func (c *cluster) probeValues() probeValues {
	pv := probeValues{ip: c.m.Interp(), index: c.m.Index(), spec: c.spec}
	pv.fn, _ = taskvine.FuncFrom(c.env, c.fn)
	if c.shape.lnni {
		pv.setup, _ = taskvine.FuncFrom(c.env, "context_setup")
		pv.args = []minipy.Value{minipy.Int(12345), minipy.Int(10)}
	} else {
		pv.args = []minipy.Value{minipy.Int(1 << 39)}
	}
	return pv
}

// timeEach runs f reps times and returns the median duration in us.
func timeEach(reps int, f func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(xs), nil
}

// probeReps is how many times each layer probe repeats its call.
const probeReps = 200

// probeLayers times calls into the pickle, minipy, poncho, proto,
// policy and hashring layers on the workload's values.
func probeLayers(ms metrics, pv probeValues, seed uint64) error {
	argsTuple := minipy.NewTuple(pv.args...)
	argData, err := pickle.Marshal(argsTuple)
	if err != nil {
		return fmt.Errorf("pickle probe: %w", err)
	}

	// pickle: the function itself, then arguments out and results back.
	// The function is pickled before its context setup runs, as library
	// creation does: afterwards it captures the unpicklable model.
	us, err := timeEach(probeReps, func() error { _, err := pickle.Marshal(pv.fn); return err })
	if err != nil {
		return fmt.Errorf("pickle.marshal_function_us: %w", err)
	}
	ms.set("pickle.marshal_function_us", "us", us)

	// minipy: the function as the application's interpreter runs it
	// locally (Table 2's local row), after its context setup.
	if pv.setup != nil {
		us, err := timeEach(5, func() error { _, err := pv.ip.Call(pv.setup, nil, nil); return err })
		if err != nil {
			return fmt.Errorf("minipy probe: %w", err)
		}
		ms.set("minipy.context_setup_ms", "ms", us/1e3)
	}
	var result minipy.Value
	us, err = timeEach(probeReps, func() error { result, err = pv.ip.Call(pv.fn, pv.args, nil); return err })
	if err != nil {
		return fmt.Errorf("minipy probe: %w", err)
	}
	ms.set("minipy.call_us", "us", us)

	resultData, err := pickle.Marshal(result)
	if err != nil {
		return fmt.Errorf("pickle probe: %w", err)
	}
	us, err = timeEach(probeReps, func() error { _, err := pickle.Marshal(argsTuple); return err })
	if err != nil {
		return fmt.Errorf("pickle.marshal_args_us: %w", err)
	}
	ms.set("pickle.marshal_args_us", "us", us)
	us, err = timeEach(probeReps, func() error { _, err := pickle.Unmarshal(resultData, pv.ip); return err })
	if err != nil {
		return fmt.Errorf("pickle.unmarshal_result_us: %w", err)
	}
	ms.set("pickle.unmarshal_result_us", "us", us)

	// poncho: resolve and pack the function's software environment.
	mods := poncho.ScanFunction(pv.fn)
	if pv.setup != nil {
		mods = append(mods, poncho.ScanFunction(pv.setup)...)
	}
	us, err = timeEach(20, func() error {
		env, err := poncho.Resolve(pv.index, mods)
		if err == nil {
			_, err = env.Pack("probe-env.tar.gz")
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("poncho probe: %w", err)
	}
	ms.set("poncho.resolve_pack_ms", "ms", us/1e3)

	if err := probeProto(ms, pv, argData, resultData); err != nil {
		return err
	}
	probePolicy(ms, seed)
	return nil
}

// memPipe is an in-memory connection: frames written are read back in
// order by the same goroutine.
type memPipe struct{ bytes.Buffer }

// probeProto round-trips the workload's invocation, result and
// library-install frames through proto.NewConn over memory.
func probeProto(ms metrics, pv probeValues, argData, resultData []byte) error {
	var pipe memPipe
	conn := proto.NewConn(&pipe)
	inv := &core.InvocationSpec{ID: 1, Library: pv.spec.Name, Function: pv.fn.Name, Args: argData}
	res := &core.Result{ID: 1, Ok: true, Value: resultData, Metrics: core.InvocationMetrics{WorkerID: "w000"}}
	roundTrip := func(t proto.MsgType, v any, decode func([]byte) error) func() error {
		return func() error {
			if err := conn.Send(t, v); err != nil {
				return err
			}
			_, raw, err := conn.Recv()
			if err != nil {
				return err
			}
			return decode(raw)
		}
	}
	us, err := timeEach(probeReps, roundTrip(proto.MsgInvoke, inv, func(raw []byte) error {
		_, err := proto.DecodeInvocation(raw)
		return err
	}))
	if err != nil {
		return fmt.Errorf("proto invocation probe: %w", err)
	}
	ms.set("proto.invocation_frame_us", "us", us)
	us, err = timeEach(probeReps, roundTrip(proto.MsgResult, res, func(raw []byte) error {
		_, err := proto.DecodeResult(raw)
		return err
	}))
	if err != nil {
		return fmt.Errorf("proto result probe: %w", err)
	}
	ms.set("proto.result_frame_us", "us", us)

	frameBytes := 0
	us, err = timeEach(5, roundTrip(proto.MsgInstallLibrary, pv.spec, func(raw []byte) error {
		frameBytes = len(raw)
		_, err := proto.Decode[core.LibrarySpec](raw)
		return err
	}))
	if err != nil {
		return fmt.Errorf("proto install probe: %w", err)
	}
	ms.set("proto.install_frame_ms", "ms", us/1e3)
	ms.set("proto.install_frame_bytes", "B", float64(frameBytes))
	return nil
}

// policyWorkers is the paper's cluster size (§4.2), the scale at which
// placement decisions are probed.
const policyWorkers = 150

// probePolicy times the placement decisions over a 150-worker view
// shaped like paper-sim, and the consistent-hash ring under them.
func probePolicy(ms metrics, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	workerRes := core.Resources{Cores: 32, MemoryMB: 64 << 10, DiskMB: 64 << 10}
	v := policy.NewClusterView(policy.Options{PeerTransfers: true, EvictEmptyLibraries: true})
	adds := make([]float64, policyWorkers)
	workers := make([]*policy.WorkerView, policyWorkers)
	for i := range workers {
		t := time.Now()
		workers[i] = v.AddWorker(fmt.Sprintf("w%04d", i), "", workerRes)
		adds[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	ms.set("policy.add_worker_us", "us", median(adds))

	envData := make([]byte, 4096)
	rng.Read(envData)
	env := core.FileSpec{Object: content.NewBlob("probe-env", envData), Cache: true, PeerTransfer: true, Unpack: true}
	// A few workers hold the environment, as after the first deploys.
	for _, w := range workers[:policyWorkers/10] {
		v.NoteReplica(w, env.Object.ID)
	}
	// The policy and ring calls below return no error; timeEach's is
	// always nil here.
	keys := make([]string, probeReps)
	for i := range keys {
		keys[i] = fmt.Sprintf("task-%d", rng.Int63())
	}
	i := 0
	us, _ := timeEach(probeReps, func() error {
		v.PlanTask(keys[i%len(keys)], taskRes, []core.FileSpec{env}, nil)
		i++
		return nil
	})
	ms.set("policy.plan_task_us", "us", us)
	us, _ = timeEach(probeReps, func() error {
		v.PlanDeploy(policy.DeploySpec{Name: "lnni", Res: libraryRes, Files: []core.FileSpec{env}}, nil)
		return nil
	})
	ms.set("policy.plan_deploy_us", "us", us)

	for _, w := range workers {
		lv := &policy.LibraryView{Name: "lnni", Ready: true, Slots: 16, MaxInstances: 1}
		v.AddInstance(w, lv)
		v.SetFreeReady(w, lv, 1+rng.Intn(16))
	}
	us, _ = timeEach(probeReps, func() error { v.PlaceReady("lnni", nil); return nil })
	ms.set("policy.place_ready_us", "us", us)

	// hashring: build a 150-member ring; walk its full member order.
	builds := make([]float64, 3)
	var ring *hashring.Ring
	for b := range builds {
		t := time.Now()
		ring = hashring.New(0)
		for _, w := range workers {
			ring.Add(w.ID)
		}
		builds[b] = float64(time.Since(t).Nanoseconds()) / 1e6
	}
	ms.set("hashring.build_ms", "ms", median(builds))
	var scratch []string
	i = 0
	us, _ = timeEach(probeReps/4, func() error {
		scratch = ring.AppendSequence(scratch[:0], keys[i%len(keys)], 0)
		i++
		return nil
	})
	ms.set("hashring.walk_us", "us", us)
}
