package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/content"
	"repro/internal/core"
	"repro/internal/manager"
	"repro/internal/minipy"
	"repro/internal/worker"
	"repro/taskvine"
)

// liveShape fixes one live workload's cluster and client behaviour.
type liveShape struct {
	workers int
	slots   int
	// tenants > 0 sends every call through CallTenant, round-robin over
	// that many equal-weight tenants.
	tenants int
	// lnni runs the LNNI application with a context-setup library, a
	// bound input and a share of L2 tasks; otherwise a no-op library.
	lnni bool
	// inputBytes is the size of the input bound to the LNNI library.
	inputBytes int
	// taskEvery makes every taskEvery-th LNNI op an L2 task.
	taskEvery int
	// traceEvery records the spans of every traceEvery-th op in a
	// traced run, keeping the in-memory trace bounded at high rates.
	traceEvery int
	// setups is how many times the cluster is built; setup_s and the
	// printed cold_start_s are medians, the last cluster runs the timed
	// phase. A dispatch set-up takes about 0.1 s and its cold burst
	// about 25 ms, so it needs more repeats than an LNNI one for a
	// steady median.
	setups int
}

func dispatchShape(small bool, tenants int) liveShape {
	s := liveShape{workers: 64, slots: 16, tenants: tenants, traceEvery: 16, setups: 25}
	if small {
		s.workers, s.slots, s.setups = 4, 4, 1
	}
	return s
}

func lnniShape(small bool) liveShape {
	s := liveShape{workers: 16, slots: 4, lnni: true, inputBytes: 8 << 20, taskEvery: 4, traceEvery: 1, setups: 5}
	if small {
		s.workers, s.inputBytes, s.setups = 2, 64<<10, 1
	}
	return s
}

func runDispatchNoop(cfg runConfig, out *output) (report, error) {
	return runLive(cfg, dispatchShape(cfg.small, 0), out)
}

func runDispatchTenants(cfg runConfig, out *output) (report, error) {
	return runLive(cfg, dispatchShape(cfg.small, 4), out)
}

func runLNNIContext(cfg runConfig, out *output) (report, error) {
	return runLive(cfg, lnniShape(cfg.small), out)
}

// lnniApp is the LNNI application of examples/lnni: classify reuses
// the model the library's context setup loaded; classify_task is the
// same inference as a stateless task that reloads the model each run,
// and doubles as the reference the benchmark checks results against.
const lnniApp = `
def context_setup():
    global model
    import resnet
    model = resnet.load_model("resnet50")

def classify(seed, n):
    import imageproc
    global model
    return model.infer_batch(imageproc.generate_batch(seed, n))

def classify_task(seed, n):
    import resnet
    import imageproc
    model = resnet.load_model("resnet50")
    return model.infer_batch(imageproc.generate_batch(seed, n))
`

const noopApp = "def noop(x):\n    return x\n"

// libraryRes is the LNNI library's allocation: half a 32-core worker,
// so L2 tasks can run beside it. With the default whole-worker
// allocation no task ever fits, because task placement never evicts an
// idle library (eviction only serves other library deploys).
var libraryRes = core.Resources{Cores: 16, MemoryMB: 32 << 10, DiskMB: 32 << 10}

var taskRes = core.Resources{Cores: 2}

// op is one client operation: an L3 call, or an L2 task that repeats
// the arguments of call pair in the same burst.
type op struct {
	task   bool
	pair   int
	tenant string
	args   []minipy.Value
}

// cluster is one set-up live engine ready for bursts.
type cluster struct {
	shape   liveShape
	m       *taskvine.Manager
	lib, fn string
	tenants []string
	wrapped *taskvine.WrappedFunction
	env     *minipy.Env
	spec    *core.LibrarySpec

	spawn, create, wrap, install, total, cold time.Duration
	// afterCold is the engine's counters when the cold burst ended: the
	// context distribution the cold phase did.
	afterCold engineCounters
}

// setUp builds the manager, workers and library and runs the cold
// burst. The set-up is timed from manager creation to the cold
// burst's last result.
func setUp(shape liveShape, rng *rand.Rand, tr *tracer) (*cluster, error) {
	start := time.Now()
	phase := tr.begin("phase.setup", -1)
	defer tr.finish(phase)
	c := &cluster{shape: shape}
	opts := taskvine.Options{}
	for i := 0; i < shape.tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		c.tenants = append(c.tenants, name)
		opts.Tenants = append(opts.Tenants, core.TenantSpec{Name: name, Weight: 1})
	}
	m, err := taskvine.NewManager(opts)
	if err != nil {
		return nil, err
	}
	c.m = m

	t := time.Now()
	if err := m.SpawnLocalWorkers(shape.workers, taskvine.WorkerOptions{}); err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("spawning workers: %w", err)
	}
	c.spawn = tr.since("taskvine.spawn_workers", phase, t)

	t = time.Now()
	lopts := taskvine.LibraryOptions{Slots: shape.slots}
	src, fns := noopApp, []string{"noop"}
	c.lib, c.fn = "dispatch", "noop"
	if shape.lnni {
		src, fns = lnniApp, []string{"classify"}
		c.lib, c.fn = "lnni", "classify"
		lopts.ContextSetup = "context_setup"
		lopts.Resources = libraryRes
	}
	env, err := m.Exec(src)
	if err == nil {
		var lib *taskvine.Library
		lib, err = m.CreateLibraryFromFunctions(c.lib, lopts, env, fns...)
		if err == nil && shape.lnni {
			data := make([]byte, shape.inputBytes)
			rng.Read(data)
			lib.AddInput(content.NewBlob("lnni-weights", data), true)
		}
		if err == nil {
			c.env, c.spec = env, lib.Spec()
			c.create = tr.since("taskvine.create_library", phase, t)
			t = time.Now()
			err = m.InstallLibrary(lib)
			c.install = tr.since("taskvine.install_library", phase, t)
		}
	}
	if err == nil && shape.lnni {
		t = time.Now()
		var fn *minipy.Func
		if fn, err = taskvine.FuncFrom(env, "classify_task"); err == nil {
			c.wrapped, err = m.WrapFunction(fn)
		}
		c.wrap = tr.since("taskvine.wrap_function", phase, t)
	}
	if err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("creating library: %w", err)
	}

	// The cold burst: exactly twice the slot capacity, calls only, so it
	// wants an instance on every worker and the library's context is
	// distributed and retained. Its size does not vary with the seed.
	t = time.Now()
	cold := tr.begin("phase.cold", phase)
	var ph phaseStats
	if err := c.runBurst(c.burst(rng, 2*shape.workers*shape.slots, false), &ph, tr, cold); err != nil {
		m.Shutdown()
		return nil, fmt.Errorf("cold burst: %w", err)
	}
	tr.finish(cold)
	if ph.failed > 0 {
		m.Shutdown()
		return nil, fmt.Errorf("cold burst: %d of %d ops failed: %s", ph.failed, ph.ops, ph.firstErr)
	}
	c.cold = time.Since(t)
	c.total = time.Since(start)
	c.afterCold = c.counters()
	return c, nil
}

// nextBurstSize draws a timed-phase burst size: about twice the
// cluster's slot capacity (±10%), so a backlog forms at the manager.
func (c *cluster) nextBurstSize(rng *rand.Rand) int {
	capacity := c.shape.workers * c.shape.slots
	return 2*capacity*9/10 + rng.Intn(2*capacity/5+1)
}

// burst draws a burst of n ops. With tasks, every taskEvery-th op
// repeats an earlier call's inference as an L2 task.
func (c *cluster) burst(rng *rand.Rand, n int, tasks bool) []op {
	ops := make([]op, n)
	for i := range ops {
		o := &ops[i]
		o.pair = -1
		if len(c.tenants) > 0 {
			o.tenant = c.tenants[i%len(c.tenants)]
		}
		switch {
		case !c.shape.lnni:
			o.args = []minipy.Value{minipy.Int(rng.Int63n(1 << 40))}
		case tasks && i%c.shape.taskEvery == c.shape.taskEvery-1:
			o.task = true
			o.pair = i - 1 - rng.Intn(c.shape.taskEvery-1)
			o.args = ops[o.pair].args
		default:
			o.args = []minipy.Value{minipy.Int(rng.Int63n(1 << 20)), minipy.Int(4 + rng.Int63n(13))}
		}
	}
	return ops
}

// phaseStats accumulates one phase's client-side observations.
type phaseStats struct {
	ops, failed int64
	firstErr    string
	callMs      []float64
	taskMs      []float64
	// Worker-reported phase times per op class (traced runs only).
	callPhases, taskPhases []core.InvocationMetrics
	// samples are decoded L3 results kept for the reference check:
	// every sampleEvery-th call.
	samples []sample
	calls   int64
}

// sample is one decoded LNNI call result awaiting its reference check.
type sample struct {
	seed, n int64
	got     minipy.Value
}

func (p *phaseStats) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

// sampleEvery picks the LNNI calls whose results are checked against
// the reference: recomputing every one would double the run.
const sampleEvery = 16

// window is the length of the live workloads' measurement windows.
const window = time.Second

// resultTimeout bounds how long the client waits for any one result.
const resultTimeout = 60 * time.Second

// runBurst submits ops, then collects and checks every result (a
// closed loop: the next burst starts only after this returns).
func (c *cluster) runBurst(ops []op, ph *phaseStats, tr *tracer, parent int) error {
	m := c.m
	type pending struct {
		idx          int
		submit, sent time.Time
	}
	byID := make(map[int64]pending, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		var id int64
		var err error
		switch {
		case o.task:
			id, err = m.SubmitWrappedCall(c.wrapped, core.L2, taskRes, o.args...)
		case o.tenant != "":
			id, err = m.CallTenant(o.tenant, c.lib, c.fn, o.args...)
		default:
			id, err = m.Call(c.lib, c.fn, o.args...)
		}
		ph.ops++
		if err != nil {
			ph.fail(err.Error())
			continue
		}
		byID[id] = pending{idx: i, submit: t0, sent: time.Now()}
	}

	vals := make([]minipy.Value, len(ops))
	timer := time.NewTimer(resultTimeout)
	defer timer.Stop()
	for left := len(byID); left > 0; left-- {
		var res core.Result
		select {
		case res = <-m.Results():
		case <-timer.C:
			for range left {
				ph.fail("timed out waiting for a result")
			}
			return fmt.Errorf("%d results outstanding after %v", left, resultTimeout)
		}
		if !timer.Stop() {
			<-timer.C
		}
		timer.Reset(resultTimeout)
		recv := time.Now()
		p, ok := byID[res.ID]
		if !ok {
			return fmt.Errorf("result for unknown id %d", res.ID)
		}
		o := &ops[p.idx]
		v, err := m.DecodeValue(res)
		done := time.Now()
		lat := float64(recv.Sub(p.submit).Nanoseconds()) / 1e6
		if o.task {
			ph.taskMs = append(ph.taskMs, lat)
		} else {
			ph.callMs = append(ph.callMs, lat)
		}
		if tr != nil {
			if o.task {
				ph.taskPhases = append(ph.taskPhases, res.Metrics)
			} else {
				ph.callPhases = append(ph.callPhases, res.Metrics)
			}
			if p.idx%c.shape.traceEvery == 0 {
				root := tr.add("op", res.ID, parent, p.submit, done)
				name := "taskvine.call"
				if o.task {
					name = "taskvine.submit_task"
				}
				tr.add(name, res.ID, root, p.submit, p.sent)
				tr.add("taskvine.result_wait", res.ID, root, p.sent, recv)
				tr.add("taskvine.decode_value", res.ID, root, recv, done)
			}
		}
		if err != nil {
			ph.fail(err.Error())
			continue
		}
		vals[p.idx] = v
		if !c.shape.lnni && !minipy.Equal(v, o.args[0]) {
			ph.fail(fmt.Sprintf("noop(%s) returned %s", minipy.ToStr(o.args[0]), minipy.ToStr(v)))
		}
	}
	if c.shape.lnni {
		c.checkLNNIBurst(ops, vals, ph)
	}
	return nil
}

// checkLNNIBurst compares every L2 task's result with the L3 call of
// the same inference, and keeps a sample of call results for the
// reference check at the end of the run.
func (c *cluster) checkLNNIBurst(ops []op, vals []minipy.Value, ph *phaseStats) {
	for i, o := range ops {
		if vals[i] == nil {
			continue // already counted as failed
		}
		if o.task {
			if want := vals[o.pair]; want != nil && !minipy.Equal(vals[i], want) {
				ph.fail(fmt.Sprintf("L2 task classify(%s) = %s, L3 call = %s", argStr(o.args), minipy.ToStr(vals[i]), minipy.ToStr(want)))
			}
			continue
		}
		ph.calls++
		if ph.calls%sampleEvery == 0 {
			ph.samples = append(ph.samples, sample{seed: int64(o.args[0].(minipy.Int)), n: int64(o.args[1].(minipy.Int)), got: vals[i]})
		}
	}
}

func argStr(args []minipy.Value) string {
	return minipy.ToStr(minipy.NewTuple(args...))
}

// referenceFunc computes the expected result of classify(seed, n).
type referenceFunc func(seed, n int64) (minipy.Value, error)

// appReference evaluates classify_task in the application's own
// interpreter: the same inference, computed without the engine.
func (c *cluster) appReference() (referenceFunc, error) {
	fn, err := taskvine.FuncFrom(c.env, "classify_task")
	if err != nil {
		return nil, err
	}
	ip := c.m.Interp()
	return func(seed, n int64) (minipy.Value, error) {
		return ip.Call(fn, []minipy.Value{minipy.Int(seed), minipy.Int(n)}, nil)
	}, nil
}

// checkSamples compares sampled results with ref and returns how many
// differ (or could not be computed), with the first difference.
func checkSamples(samples []sample, ref referenceFunc) (wrong int64, first string) {
	for _, s := range samples {
		want, err := ref(s.seed, s.n)
		switch {
		case err != nil:
			wrong++
			if first == "" {
				first = fmt.Sprintf("reference classify(%d, %d): %v", s.seed, s.n, err)
			}
		case !minipy.Equal(s.got, want):
			wrong++
			if first == "" {
				first = fmt.Sprintf("classify(%d, %d) = %s, reference %s", s.seed, s.n, minipy.ToStr(s.got), minipy.ToStr(want))
			}
		}
	}
	return wrong, first
}

// engineCounters is the manager's and the workers' counters at one
// instant.
type engineCounters struct {
	mgr     manager.Stats
	workers worker.Stats
}

func (c *cluster) counters() engineCounters {
	ec := engineCounters{mgr: c.m.Stats()}
	for _, w := range c.m.LocalWorkers() {
		s := w.Stats()
		ec.workers.ProtocolErrors += s.ProtocolErrors
		d := &ec.workers.Data
		d.Fetches += s.Data.Fetches
		d.FetchErrors += s.Data.FetchErrors
		d.AltSourceRetries += s.Data.AltSourceRetries
		d.Deduped += s.Data.Deduped
		d.Served += s.Data.Served
	}
	return ec
}

// runLive runs one live workload: repeated set-ups, the timed phase,
// the output checks and, in a traced run, the per-layer report.
func runLive(cfg runConfig, shape liveShape, out *output) (report, error) {
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var c *cluster
	var totals, colds []float64
	for i := 0; i < shape.setups; i++ {
		if c != nil {
			c.m.Shutdown()
			runtime.GC()
		}
		var err error
		if c, err = setUp(shape, rng, tr); err != nil {
			return report{}, err
		}
		totals = append(totals, c.total.Seconds())
		colds = append(colds, c.cold.Seconds())
		out.line("setup %d: %.3f s (spawn %v, create %v, wrap %v, install %v, cold %v; %d instances deployed)",
			i, c.total.Seconds(), c.spawn, c.create, c.wrap, c.install, c.cold, c.m.Stats().LibrariesDeployed)
	}
	defer c.m.Shutdown()

	var ph phaseStats
	timed := func(seconds float64, tr *tracer) (*windows, error) {
		span := tr.begin("phase.timed", -1)
		defer tr.finish(span)
		start := time.Now()
		win := newWindows(window, start)
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		for now := start; now.Before(deadline); {
			ops0, lat0 := ph.ops, len(ph.callMs)
			if err := c.runBurst(c.burst(rng, c.nextBurstSize(rng), shape.lnni), &ph, tr, span); err != nil {
				return nil, err
			}
			now = time.Now()
			win.record(ph.ops-ops0, ph.callMs[lat0:], now)
		}
		win.finish(time.Now())
		return win, nil
	}

	// Warm-up: bursts for a second (a tenth of a shorter run) before
	// any timed phase, so the engine's pools and queues reach their
	// working size. Its results are checked like all others.
	if _, err := timed(min(1, cfg.seconds/10), nil); err != nil {
		return report{}, err
	}
	ph.callMs, ph.taskMs = nil, nil

	ms := metrics{}
	if !cfg.trace {
		from, before := sampleProc(), c.counters()
		ops0 := ph.ops
		win, err := timed(cfg.seconds, nil)
		if err != nil {
			return report{}, err
		}
		to := sampleProc()
		ms.set("setup_s", "s", median(totals))
		out.line("cold_start_s %.6g s (median of %d set-ups)", median(colds), len(colds))
		win.set(ms)
		costMetrics(ms, from, to, ph.ops-ops0)
		printLiveExtras(out, &ph, win, c.counters(), before)
	} else {
		// Untraced first half, traced second half: the difference in
		// throughput is the tracing overhead.
		win0, err := timed(cfg.seconds/2, nil)
		if err != nil {
			return report{}, err
		}
		ph.callMs, ph.taskMs = nil, nil
		from, before := sampleProc(), c.counters()
		ops0 := ph.ops
		win, err := timed(cfg.seconds/2, tr)
		if err != nil {
			return report{}, err
		}
		to := sampleProc()
		setOverhead(ms, out, win0, win)
		c.layerMetrics(ms, tr, &ph, before, c.counters(), ph.ops-ops0)
		runtimeMetrics(ms, from, to, ph.ops-ops0)
		if err := probeLayers(ms, c.probeValues(), cfg.seed); err != nil {
			return report{}, err
		}
		if err := probeSim(ms, cfg, tr); err != nil {
			return report{}, err
		}
		if err := tr.report(cfg, out); err != nil {
			return report{}, err
		}
	}

	if shape.lnni {
		ref, err := c.appReference()
		if err != nil {
			return report{}, err
		}
		wrong, first := checkSamples(ph.samples, ref)
		out.line("reference check: %d sampled calls, %d wrong", len(ph.samples), wrong)
		if wrong > 0 {
			ph.fail(first)
			ph.failed += wrong - 1
		}
	}
	if ph.firstErr != "" {
		out.line("first failure: %s", ph.firstErr)
	}
	return report{Correct: ph.failed == 0, Attempted: ph.ops, Failed: ph.failed, Metrics: ms}, nil
}

// printLiveExtras prints the end-to-end numbers that apply to only
// some workloads (task latencies) and the fault counters.
func printLiveExtras(out *output, ph *phaseStats, win *windows, after, before engineCounters) {
	if len(ph.taskMs) > 0 {
		out.line("task_latency_p50_ms %.6g ms (n=%d)", quantile(ph.taskMs, 0.50), len(ph.taskMs))
		out.line("task_latency_p99_ms %.6g ms (n=%d)", quantile(ph.taskMs, 0.99), len(ph.taskMs))
	}
	out.line("latency samples: %d calls, %d tasks over %d windows of %v; whole-phase call p50 %.6g ms, p99 %.6g ms",
		len(ph.callMs), len(ph.taskMs), len(win.rate), window, quantile(ph.callMs, 0.50), quantile(ph.callMs, 0.99))
	out.line("manager failures %d, retries %d, requeued %d during the timed phase",
		after.mgr.Failures-before.mgr.Failures, after.mgr.Retries-before.mgr.Retries, after.mgr.Requeued-before.mgr.Requeued)
}
