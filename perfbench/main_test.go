package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/minipy"
)

// runSmall runs one workload at the tests' tiny size and returns the
// parsed result line and the text before it.
func runSmall(t *testing.T, workload string, trace bool, traceOut string) (report, string) {
	t.Helper()
	var buf bytes.Buffer
	code := run(runConfig{workload: workload, seed: 7, seconds: 0.3, trace: trace, small: true, traceOut: traceOut}, &buf)
	text := strings.TrimSpace(buf.String())
	if code != 0 {
		t.Fatalf("%s (trace=%v): exit %d\n%s", workload, trace, code, text)
	}
	lines := strings.Split(text, "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, text)
	}
	return rep, text
}

func assertMetrics(t *testing.T, workload string, rep report, defs []metricDef, nonzero bool) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s unit %q, want %q", workload, d.name, m.Unit, d.unit)
		case nonzero && !(m.Value > 0):
			t.Errorf("%s: metric %s = %v, want > 0", workload, d.name, m.Value)
		}
	}
}

func TestSmokeEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			rep, text := runSmall(t, w, false, "")
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, text)
			}
			assertMetrics(t, w, rep, endToEnd, true)
			if !strings.Contains(text, `"cpu_model"`) || !strings.Contains(text, `"seed":7`) {
				t.Errorf("no host fingerprint line:\n%s", text)
			}

			rep, text = runSmall(t, w, true, "")
			if !rep.Correct {
				t.Fatalf("traced run failed\n%s", text)
			}
			assertMetrics(t, w, rep, perLayer, false)
			if !strings.Contains(text, "tracing overhead") || !strings.Contains(text, "span {") {
				t.Errorf("traced run printed no span summary or overhead:\n%s", text)
			}
		})
	}
}

func TestPaperSimMakespansRepeat(t *testing.T) {
	makespans := func() string {
		_, text := runSmall(t, "paper-sim", false, "")
		var out []string
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, "makespan ") {
				out = append(out, l)
			}
		}
		if len(out) != 5 {
			t.Fatalf("want 5 makespan lines, got %d:\n%s", len(out), text)
		}
		return strings.Join(out, "\n")
	}
	if a, b := makespans(), makespans(); a != b {
		t.Errorf("makespans differ between runs of one seed:\n%s\n---\n%s", a, b)
	}
}

func TestWrongReferenceFailsTheCheck(t *testing.T) {
	samples := []sample{
		{seed: 1, n: 4, got: minipy.NewList(minipy.Int(3), minipy.Int(5))},
		{seed: 2, n: 4, got: minipy.NewList(minipy.Int(7))},
	}
	right := func(seed, n int64) (minipy.Value, error) {
		if seed == 1 {
			return minipy.NewList(minipy.Int(3), minipy.Int(5)), nil
		}
		return minipy.NewList(minipy.Int(7)), nil
	}
	if wrong, first := checkSamples(samples, right); wrong != 0 {
		t.Fatalf("matching reference flagged %d samples: %s", wrong, first)
	}
	wrongRef := func(seed, n int64) (minipy.Value, error) {
		return minipy.NewList(minipy.Int(seed)), nil
	}
	if wrong, first := checkSamples(samples, wrongRef); wrong != 2 || first == "" {
		t.Fatalf("wrong reference: %d samples flagged (%q), want 2", wrong, first)
	}

	// paper-sim: a reuse level slower than the level below it, or an
	// incomplete run, fails the cycle's checks.
	outs := []simOutcome{
		{name: "lnni_l1", makespan: 300, meanRun: 30, complete: true},
		{name: "lnni_l2", makespan: 80, meanRun: 20, complete: true},
		{name: "lnni_l3", makespan: 90, meanRun: 10, complete: true},
		{name: "examol_l1", makespan: 1700, meanRun: 400, complete: true},
		{name: "examol_l2", makespan: 1500, meanRun: 410, complete: false},
	}
	if _, failures := checkCycle(outs, map[string]float64{}); len(failures) != 3 {
		t.Fatalf("want 3 failures (LNNI L3 above L2, ExaMol L2 above L1, incomplete run), got %q", failures)
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 40, End: 70},
		{Name: "b.1", Parent: 2, Start: 45, End: 50},
	}
	self := selfTimes(spans)
	if want := []int64{50, 20, 25, 5}; !equalInts(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// Overlapping children (one burst's concurrent ops) count once.
	over := []span{
		{Name: "phase", Parent: -1, Start: 0, End: 100},
		{Name: "op", Parent: 0, Start: 10, End: 50},
		{Name: "op", Parent: 0, Start: 30, End: 60},
	}
	if got := selfTimes(over)[0]; got != 50 {
		t.Fatalf("phase self time %d with overlapping children, want 50", got)
	}

	// On a real traced run, every op's self time plus its children's
	// durations equals its duration.
	dir := t.TempDir()
	runSmall(t, "lnni-context", true, dir)
	recorded := readTrace(t, filepath.Join(dir, "lnni-context-seed7.jsonl"))
	self = selfTimes(recorded)
	childSum := make([]int64, len(recorded))
	for _, s := range recorded {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	ops := 0
	for i, s := range recorded {
		if s.Name != "op" {
			continue
		}
		ops++
		if self[i]+childSum[i] != s.dur() {
			t.Fatalf("op span %d: self %d + children %d != duration %d", i, self[i], childSum[i], s.dur())
		}
	}
	if ops == 0 {
		t.Fatal("traced run recorded no op spans")
	}
}

func readTrace(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRefusesOversubscribedRuntime(t *testing.T) {
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	defer runtime.GOMAXPROCS(prev)
	var buf bytes.Buffer
	if code := run(runConfig{workload: "paper-sim", seed: 1, seconds: 0.1, small: true}, &buf); code == 0 {
		t.Fatal("run reported with GOMAXPROCS > NumCPU")
	}
	if buf.Len() != 0 {
		t.Fatalf("refused run printed output:\n%s", buf.String())
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json's metric lists
// and the metrics the program reports in step.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil || unlisted[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not implemented or is marked unlisted", w.Name)
		}
	}
	if len(names)+len(unlisted) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v of which %d unlisted", names, workloadNames(), len(unlisted))
	}
}
