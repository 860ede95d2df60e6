// Command perfbench is the repository benchmark: it runs one named
// workload against the live engine (taskvine over real sockets) or the
// paper simulator, checks every output, and prints the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) as one
// JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload dispatch-noop --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (ms metrics) set(name, unit string, v float64) { ms[name] = metric{Value: v, Unit: unit} }

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is what one invocation of the benchmark was asked to do.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// small shrinks every workload's cluster and bursts for the
	// package's own smoke tests.
	small bool
	// traceOut is where the traced run writes its spans ("" skips).
	traceOut string
}

// workloadFunc runs one workload and returns its report. Text lines
// written to out precede the result line.
type workloadFunc func(cfg runConfig, out *output) (report, error)

var workloads = map[string]workloadFunc{
	"dispatch-noop":    runDispatchNoop,
	"dispatch-tenants": runDispatchTenants,
	"lnni-context":     runLNNIContext,
	"paper-sim":        runPaperSim,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (inputs, burst sizes, simulator seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.traceOut = ".bench_build/traces"

	os.Exit(run(cfg, os.Stdout))
}

// run executes one benchmark invocation and returns the exit code.
func run(cfg runConfig, w io.Writer) int {
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	host := fingerprint(cfg)
	// An oversubscribed runtime measures scheduler contention, not the
	// engine: refuse rather than report a misleading number.
	if host.GOMAXPROCS > host.NumCPU {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d exceeds NumCPU=%d; refusing to report\n", host.GOMAXPROCS, host.NumCPU)
		return 2
	}
	out := &output{w: w}
	out.json("host", host)

	rep, err := fn(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		fillMissing(rep.Metrics, perLayer)
	}
	errRate := 0.0
	if rep.Attempted > 0 {
		errRate = float64(rep.Failed) / float64(rep.Attempted)
	}
	out.line("error_rate %.6g fraction (%d of %d ops failed, wrong or timed out)", errRate, rep.Failed, rep.Attempted)
	out.json("", rep)
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed (%d of %d ops)\n", cfg.workload, rep.Failed, rep.Attempted)
		return 1
	}
	return 0
}

// output writes the human-readable lines that precede the result.
type output struct {
	w io.Writer
}

func (o *output) line(format string, args ...any) {
	fmt.Fprintf(o.w, format+"\n", args...)
}

// json writes v as one JSON line, prefixed by label when it is set.
func (o *output) json(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding %s: %v\n", label, err)
		return
	}
	if label != "" {
		fmt.Fprintf(o.w, "%s %s\n", label, b)
		return
	}
	fmt.Fprintf(o.w, "%s\n", b)
}

// hostInfo identifies the machine and code a result was measured on.
type hostInfo struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func fingerprint(cfg runConfig) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
