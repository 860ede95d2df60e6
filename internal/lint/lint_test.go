package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools analysistest: fixture packages
// under testdata/src carry `// want `regex`` comments on the lines
// where diagnostics are expected, and each test loads one or more
// fixture trees, runs a subset of the suite, and diffs the result
// against the annotations. Fixture import paths live under the real
// module path (repro/internal/lint/testdata/src/...), so suffix-based
// analyzer scoping and imports of real module packages both work
// exactly as they do in production.

// sharedLoader memoizes type-checking across tests in this package —
// every case pays for the stdlib once.
var sharedLoader *Loader

func loadCase(t *testing.T, analyzers []*Analyzer, cases ...string) (*Program, *Result) {
	t.Helper()
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if sharedLoader == nil {
		sharedLoader = NewLoader("repro", moduleDir)
	}
	var dirs []string
	for _, c := range cases {
		ds, err := ExpandPatterns(moduleDir, []string{"internal/lint/testdata/src/" + c + "/..."})
		if err != nil {
			t.Fatalf("expanding fixture %s: %v", c, err)
		}
		if len(ds) == 0 {
			t.Fatalf("fixture %s matched no directories", c)
		}
		dirs = append(dirs, ds...)
	}
	prog, err := sharedLoader.Load(dirs...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", cases, err)
	}
	return prog, RunAnalyzers(prog, analyzers)
}

// A want comment holds one or more backticked regexes:
// `// want `A` `B“ expects two diagnostics on its line.
var (
	wantRE     = regexp.MustCompile("// want `")
	wantPatRE  = regexp.MustCompile("`([^`]+)`")
	wantMarker = "// want "
)

// checkWants diffs the run's diagnostics (findings and pragma errors
// both) against the fixtures' `// want` annotations: every annotation
// must be matched by a diagnostic on its line, and every diagnostic
// must be claimed by an annotation.
func checkWants(t *testing.T, prog *Program, res *Result) {
	t.Helper()
	type line struct {
		file string
		n    int
	}
	wants := map[line][]*regexp.Regexp{}
	for _, pkg := range prog.Target {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, wantMarker)
					if idx < 0 || !wantRE.MatchString(c.Text) {
						continue
					}
					for _, m := range wantPatRE.FindAllStringSubmatch(c.Text[idx+len(wantMarker):], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("bad want regexp %q: %v", m[1], err)
						}
						pos := prog.Fset.Position(c.Pos())
						k := line{pos.Filename, pos.Line}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}
	all := append([]Diagnostic{}, res.Diagnostics...)
	all = append(all, res.PragmaErrors...)
	for _, d := range all {
		k := line{d.Pos.Filename, d.Pos.Line}
		ws := wants[k]
		hit := -1
		for i, re := range ws {
			if re.MatchString(d.Message) {
				hit = i
				break
			}
		}
		if hit < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(ws[:hit], ws[hit+1:]...)
	}
	for k, ws := range wants {
		for _, re := range ws {
			t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.n, re)
		}
	}
}

func TestPolicyPurity(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{policypurity}, "policypurity_bad", "policypurity_ok")
	checkWants(t, prog, res)
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestMapDeterminism(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{mapdeterminism}, "mapdet_bad", "mapdet_ok")
	checkWants(t, prog, res)
	// mapdet_ok's counting loop and the dataplane's size-summing loop
	// are absorbed by their pragmas — visible as suppressions, never as
	// findings or stale-pragma errors.
	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2", res.Suppressed)
	}
}

func TestLockDiscipline(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{lockdiscipline}, "lockdiscipline_bad", "lockdiscipline_ok")
	checkWants(t, prog, res)
}

func TestPoolDiscipline(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{pooldiscipline}, "pooldiscipline_bad", "pooldiscipline_ok")
	checkWants(t, prog, res)
	// pooldiscipline_ok's ParkBuffer leak is absorbed by its justified
	// pragma; pooldiscipline_bad's stale pragma surfaces as a pragma
	// error (claimed by a want annotation), not a suppression.
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
}

func TestCtxDeadline(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{ctxdeadline}, "ctxdeadline_bad", "ctxdeadline_ok")
	checkWants(t, prog, res)
}

func TestPinResolve(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{pinresolve}, "pinresolve_bad", "pinresolve_ok")
	checkWants(t, prog, res)
}

func TestTraceStability(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{tracestability}, "tracestability_bad", "tracestability_ok")
	checkWants(t, prog, res)
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestMirrorParity(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{mirrorparity}, "mirrorparity_bad", "mirrorparity_ok")
	checkWants(t, prog, res)
	// mirrorparity_ok's PickDelay is deliberately one-sided and carries
	// a justified pragma: one suppression, no stale-pragma error.
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
}

// TestMirrorParityGenerics pins parity through generic policy types:
// each engine reaches a per-instantiation method object, which must
// count as the declared method.
func TestMirrorParityGenerics(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{mirrorparity}, "mirrorparity_generic_bad", "mirrorparity_generic_ok")
	checkWants(t, prog, res)
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestStatDiscipline(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{statdiscipline}, "statdiscipline_bad", "statdiscipline_ok")
	checkWants(t, prog, res)
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0", res.Suppressed)
	}
}

func TestGoroutineLifecycle(t *testing.T) {
	prog, res := loadCase(t, []*Analyzer{goroutinelifecycle}, "goroutinelifecycle_bad", "goroutinelifecycle_ok")
	checkWants(t, prog, res)
	// goroutinelifecycle_ok's telemetry flush is fire-and-forget by
	// design and carries a justified pragma.
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
}

// loadReal loads real module packages (not fixtures) through the
// shared loader.
func loadReal(t *testing.T, patterns ...string) *Program {
	t.Helper()
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if sharedLoader == nil {
		sharedLoader = NewLoader("repro", moduleDir)
	}
	dirs, err := ExpandPatterns(moduleDir, patterns)
	if err != nil {
		t.Fatalf("expanding %v: %v", patterns, err)
	}
	prog, err := sharedLoader.Load(dirs...)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}
	return prog
}

// TestTraceVocabularyCoversGoldenTraces proves the pinned vocabulary
// is complete against the ground truth: every line of every golden
// trace must match some vocabulary format (with %s and %d widened to
// value patterns). A golden line no format can produce means the
// vocabulary — and therefore tracestability — has drifted from what
// the engines actually emit.
func TestTraceVocabularyCoversGoldenTraces(t *testing.T) {
	var res []*regexp.Regexp
	for format := range traceVocabulary {
		pat := regexp.QuoteMeta(format)
		pat = strings.ReplaceAll(pat, "%s", `[^ ]*`)
		pat = strings.ReplaceAll(pat, "%d", `-?\d+`)
		res = append(res, regexp.MustCompile("^"+pat+"$"))
	}
	goldens, err := filepath.Glob("../experiments/testdata/golden_trace_*.txt")
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			matched := false
			for _, re := range res {
				if re.MatchString(line) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: golden trace line %q matches no pinned vocabulary format", filepath.Base(path), i+1, line)
			}
		}
	}
}

// TestTraceSchemaCurrent proves traceschema.go is regenerated: the
// vocabulary extracted from the real policy package and engine
// recorders must equal the pinned map exactly, both directions.
func TestTraceSchemaCurrent(t *testing.T) {
	prog := loadReal(t, "internal/policy", "internal/manager", "internal/sim")
	got := TraceFormats(prog)
	for _, format := range got {
		if !traceVocabulary[format] {
			t.Errorf("format %q is in the tree but not in traceschema.go; regenerate with `go run ./cmd/vinelint -write-traceschema`", format)
		}
	}
	gotSet := map[string]bool{}
	for _, format := range got {
		gotSet[format] = true
	}
	for format := range traceVocabulary {
		if !gotSet[format] {
			t.Errorf("format %q is pinned in traceschema.go but no longer in the tree; regenerate with `go run ./cmd/vinelint -write-traceschema`", format)
		}
	}
	// Regeneration must round-trip byte-identically, so running
	// -write-traceschema on a clean tree never dirties the checkout.
	src, err := GenTraceSchema(got)
	if err != nil {
		t.Fatalf("GenTraceSchema: %v", err)
	}
	disk, err := os.ReadFile("traceschema.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, disk) {
		t.Errorf("GenTraceSchema output differs from traceschema.go on disk; regenerate with `go run ./cmd/vinelint -write-traceschema`")
	}
}

// TestPragmaErrors drives every pragma failure mode through a fixture:
// unknown keywords and analyzer names are rejected, a pragma without a
// justification is rejected (and the finding under it survives), and a
// pragma that suppresses nothing is a stale-pragma error. The one
// well-formed pragma suppresses exactly one finding.
func TestPragmaErrors(t *testing.T) {
	_, res := loadCase(t, All(), "pragma_errors")
	wantErrs := []string{
		`unknown vinelint pragma "frobnicate"`,
		`names unknown analyzer "nosuchanalyzer"`,
		"needs a justification",
		"stale //vinelint:mapdeterminism pragma",
	}
	if len(res.PragmaErrors) != len(wantErrs) {
		t.Fatalf("pragma errors = %d, want %d:\n%s", len(res.PragmaErrors), len(wantErrs), diagLines(res.PragmaErrors))
	}
	for _, want := range wantErrs {
		found := false
		for _, d := range res.PragmaErrors {
			if regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(d.Message) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no pragma error containing %q in:\n%s", want, diagLines(res.PragmaErrors))
		}
	}
	// The unjustified pragma does not count as a suppression, so its
	// loop's finding survives.
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Analyzer != "mapdeterminism" {
		t.Errorf("diagnostics = %v, want exactly the unjustified loop's mapdeterminism finding", res.Diagnostics)
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want 1", res.Suppressed)
	}
	if res.Clean() {
		t.Error("Clean() = true for a run with findings and pragma errors")
	}
}

func diagLines(ds []Diagnostic) string {
	out := ""
	for _, d := range ds {
		out += fmt.Sprintln(d)
	}
	return out
}
