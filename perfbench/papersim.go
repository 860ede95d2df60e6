package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/taskvine"
)

// paperWorkers is the paper's cluster size (§4.2).
const paperWorkers = 150

// simInvocations is paper-sim's reduced invocation count per
// configuration (the paper runs 100k LNNI and 10k ExaMol invocations).
const simInvocations = 1500

// simCase is one simulator configuration of the paper's Figure 6.
type simCase struct {
	name string
	cfg  sim.Config
}

// paperCases builds LNNI L1/L2/L3 and ExaMol L1/L2 at 150 workers. The
// seed drives the simulator and the shared execution-time draws (common
// random numbers across the reuse levels of one application, as the
// experiments harness does).
func paperCases(seed uint64, invocations int) []simCase {
	draws := func(app *apps.CostModel, units int) []float64 {
		rng := event.NewRNG(seed ^ 0xE1EC)
		out := make([]float64, invocations)
		for i := range out {
			out[i] = app.ExecSeconds(rng, units)
		}
		return out
	}
	lnniDraws, examolDraws := draws(apps.LNNI(), 16), draws(apps.ExaMol(), 0)
	var cases []simCase
	for _, level := range []core.ReuseLevel{core.L1, core.L2, core.L3} {
		cfg := experiments.SeedConfig(level, paperWorkers, invocations)
		cfg.Seed = seed
		cfg.ExecDraws = lnniDraws
		cases = append(cases, simCase{name: fmt.Sprintf("lnni_l%d", level), cfg: cfg})
	}
	for _, level := range []core.ReuseLevel{core.L1, core.L2} {
		cases = append(cases, simCase{name: fmt.Sprintf("examol_l%d", level), cfg: sim.Config{
			App: apps.ExaMol(), Level: level,
			Workers: paperWorkers, SlotsPerWorker: 8,
			Invocations: invocations, Seed: seed, PeerTransfers: true,
			ExecDraws: examolDraws,
		}})
	}
	return cases
}

// simOutcome is one sim.Run's checked result.
type simOutcome struct {
	name     string
	makespan float64
	// meanRun is the mean invocation run time, slot assignment to
	// completion (simulated seconds).
	meanRun  float64
	hostS    float64
	complete bool
}

func runCase(sc simCase, tr *tracer, parent int) simOutcome {
	t := time.Now()
	r := sim.Run(sc.cfg)
	end := time.Now()
	tr.add("sim."+sc.name, 0, parent, t, end)
	return simOutcome{
		name:     sc.name,
		makespan: r.TotalTime,
		meanRun:  r.Summary.Mean,
		hostS:    end.Sub(t).Seconds(),
		complete: len(r.Times) == sc.cfg.Invocations,
	}
}

// checkCycle applies paper-sim's output checks to one cycle of cases:
// every invocation completed, the paper's order holds, and each
// makespan equals the one first seen for its case (the simulator is
// deterministic per seed). It returns the number of checks made and
// the failures.
//
// The order is L3 < L2 < L1 on LNNI makespans. On ExaMol it is L2 < L1
// on mean invocation run time: with a few invocations per slot, the
// makespan is set by the slowest execution draws rather than by context
// reuse, and L2's makespan exceeds L1's for some seeds (at 3000
// invocations, seed 107: 2351 s against 2156 s), while its mean run
// time stays near 0.63 of L1's.
func checkCycle(outs []simOutcome, first map[string]float64) (checks int, failures []string) {
	byName := map[string]simOutcome{}
	for _, o := range outs {
		byName[o.name] = o
		checks++
		if !o.complete {
			failures = append(failures, o.name+": not every invocation completed")
		}
		checks++
		if want, ok := first[o.name]; ok && want != o.makespan {
			failures = append(failures, fmt.Sprintf("%s: makespan %v differs from the first run's %v", o.name, o.makespan, want))
		} else if !ok {
			first[o.name] = o.makespan
		}
	}
	makespan := func(o simOutcome) float64 { return o.makespan }
	meanRun := func(o simOutcome) float64 { return o.meanRun }
	order := []struct {
		lower, higher, what string
		value               func(simOutcome) float64
	}{
		{"lnni_l3", "lnni_l2", "makespan", makespan},
		{"lnni_l2", "lnni_l1", "makespan", makespan},
		{"examol_l2", "examol_l1", "mean invocation run time", meanRun},
	}
	for _, p := range order {
		checks++
		lo, hi := p.value(byName[p.lower]), p.value(byName[p.higher])
		if !(lo < hi) {
			failures = append(failures, fmt.Sprintf("%s %s %v is not below %s's %v", p.lower, p.what, lo, p.higher, hi))
		}
	}
	return checks, failures
}

// simSize is paper-sim's invocations per configuration and set-up
// count; small shrinks them for the package's own tests.
func simSize(small bool) (invocations, setups int) {
	if small {
		return 150, 1
	}
	return simInvocations, 9
}

// probeSim runs one cycle of paper-sim's configurations in a live
// workload's traced run, so the sim layer is measured on the gated
// workloads too (paper-sim itself is not gated, README.md
// "Steadiness"), and applies paper-sim's output checks to it.
func probeSim(ms metrics, cfg runConfig, tr *tracer) error {
	invocations, _ := simSize(cfg.small)
	var outs []simOutcome
	for _, sc := range paperCases(cfg.seed, invocations) {
		o := runCase(sc, tr, -1)
		outs = append(outs, o)
		ms.set("sim."+sc.name+"_s", "s", o.hostS)
	}
	if _, failures := checkCycle(outs, map[string]float64{}); len(failures) > 0 {
		return fmt.Errorf("sim probe: %s", failures[0])
	}
	return nil
}

func runPaperSim(cfg runConfig, out *output) (report, error) {
	invocations, setups := simSize(cfg.small)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: build the configurations and run the cold case, the way a
	// live set-up ends with its cold burst. The cold case is LNNI L3 as
	// experiments.SeedConfig pins it, seed included: the host cost of
	// one configuration varies with its seed, and the cold case must do
	// the same simulated work on every run.
	var cases []simCase
	var totals, colds []float64
	coldCase := simCase{name: "lnni_l3_cold", cfg: experiments.SeedConfig(core.L3, paperWorkers, invocations)}
	for i := 0; i < setups; i++ {
		runtime.GC()
		start := time.Now()
		phase := tr.begin("phase.setup", -1)
		cases = paperCases(cfg.seed, invocations)
		t := time.Now()
		o := runCase(coldCase, tr, phase)
		tr.finish(phase)
		if !o.complete {
			return report{}, fmt.Errorf("cold case %s: not every invocation completed", o.name)
		}
		colds = append(colds, time.Since(t).Seconds())
		totals = append(totals, time.Since(start).Seconds())
	}

	var attempted, failed int64
	var firstErr string
	first := map[string]float64{}
	timed := func(seconds float64, tr *tracer) *simPhase {
		span := tr.begin("phase.timed", -1)
		defer tr.finish(span)
		ph := &simPhase{invocations: invocations, caseMs: map[string][]float64{}}
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for time.Now().Before(deadline) {
			outs := make([]simOutcome, len(cases))
			cycleStart := time.Now()
			for i, sc := range cases {
				outs[i] = runCase(sc, tr, span)
				ph.caseMs[sc.name] = append(ph.caseMs[sc.name], outs[i].hostS*1e3)
			}
			ph.cycleMs = append(ph.cycleMs, float64(time.Since(cycleStart).Nanoseconds())/1e6)
			if len(first) == 0 {
				for _, o := range outs {
					out.line("makespan %s %.6f s, mean invocation run time %.6f s (simulated, %d invocations on %d workers)",
						o.name, o.makespan, o.meanRun, invocations, paperWorkers)
				}
			}
			checks, failures := checkCycle(outs, first)
			attempted += int64(checks)
			failed += int64(len(failures))
			if len(failures) > 0 && firstErr == "" {
				firstErr = failures[0]
			}
		}
		return ph
	}

	ms := metrics{}
	if !cfg.trace {
		from := sampleProc()
		ph := timed(cfg.seconds, nil)
		to := sampleProc()
		ms.set("setup_s", "s", median(totals))
		out.line("cold_start_s %.6g s (median of %d set-ups)", median(colds), len(colds))
		ph.set(ms)
		costMetrics(ms, from, to, ph.simulated())
		out.line("timed phase: %d cycles of %d cases", len(ph.cycleMs), len(cases))
	} else {
		ph0 := timed(cfg.seconds/2, nil)
		from := sampleProc()
		ph := timed(cfg.seconds/2, tr)
		to := sampleProc()
		untraced, traced := ph0.opsPerS(), ph.opsPerS()
		ms.set("trace.overhead_frac", "fraction", 1-traced/untraced)
		out.line("tracing overhead: %.6g ops/s untraced, %.6g ops/s traced", untraced, traced)
		for _, sc := range cases {
			ms.set("sim."+sc.name+"_s", "s", median(ph.caseMs[sc.name])/1e3)
		}
		runtimeMetrics(ms, from, to, ph.simulated())
		pv, stop, err := lnniProbeValues()
		if err != nil {
			return report{}, err
		}
		err = probeLayers(ms, pv, cfg.seed)
		stop()
		if err != nil {
			return report{}, err
		}
		if err := tr.report(cfg, out); err != nil {
			return report{}, err
		}
	}
	if firstErr != "" {
		out.line("first failure: %s", firstErr)
	}
	return report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

// simPhase is one timed phase of paper-sim: whole cycles of the five
// cases, with each case's host time per cycle.
type simPhase struct {
	invocations int
	cycleMs     []float64
	caseMs      map[string][]float64
}

func (p *simPhase) simulated() int64 { return int64(len(p.cycleMs) * len(p.caseMs) * p.invocations) }

// caseMedians is each case's median host time (ms) over the cycles.
// Taking the median per case first keeps one slow cycle on a shared
// host from moving the run's figures.
func (p *simPhase) caseMedians() []float64 {
	var out []float64
	for _, xs := range p.caseMs {
		out = append(out, median(xs))
	}
	return out
}

// opsPerS is simulated invocations per host second of a typical cycle.
func (p *simPhase) opsPerS() float64 {
	total := 0.0
	for _, m := range p.caseMedians() {
		total += m / 1e3
	}
	return float64(len(p.caseMs)*p.invocations) / total
}

// set reports throughput, and as latency the host time of one cycle:
// the harness's unit of work, Figure 6 at the reduced size.
func (p *simPhase) set(ms metrics) {
	ms.set("ops_per_s", "ops/s", p.opsPerS())
	ms.set("latency_p50_ms", "ms", quantile(p.cycleMs, 0.50))
	ms.set("latency_p99_ms", "ms", quantile(p.cycleMs, 0.99))
}

// lnniProbeValues builds the LNNI application's values (the
// application paper-sim simulates) on a manager with no workers, for
// the layer probes of a traced paper-sim run.
func lnniProbeValues() (probeValues, func(), error) {
	m, err := taskvine.NewManager(taskvine.Options{})
	if err != nil {
		return probeValues{}, nil, err
	}
	env, err := m.Exec(lnniApp)
	if err != nil {
		m.Shutdown()
		return probeValues{}, nil, err
	}
	lib, err := m.CreateLibraryFromFunctions("lnni", taskvine.LibraryOptions{
		ContextSetup: "context_setup", Slots: 4, Resources: libraryRes,
	}, env, "classify")
	if err != nil {
		m.Shutdown()
		return probeValues{}, nil, err
	}
	c := &cluster{shape: liveShape{lnni: true}, m: m, env: env, spec: lib.Spec(), fn: "classify"}
	return c.probeValues(), m.Shutdown, nil
}
