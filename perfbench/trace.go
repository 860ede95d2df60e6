package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Inv ties together the spans of one invocation (0 for
// phase spans); Parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Inv    int64  `json:"inv,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
// It is used from the single client goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the trace's time base.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, inv int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Inv: inv, Parent: parent, Start: t.at(start), End: t.at(end)})
	return len(t.spans) - 1
}

// since records a span from start to now and returns its duration.
func (t *tracer) since(name string, parent int, start time.Time) time.Duration {
	now := time.Now()
	t.add(name, 0, parent, start, now)
	return now.Sub(start)
}

// begin opens a span whose end is set later with finish.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.at(time.Now())
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.at(time.Now())
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children, such
// as the concurrent operations of one burst, count once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := int64(0)
		cur := s.Start // covered up to here
		for _, k := range kids {
			lo, hi := max(spans[k].Start, cur), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Us   float64 `json:"p50_us"`
}

func summarizeSpans(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	durs := map[string][]float64{}
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanSummary{Name: s.Name})
		}
		out[j].Count++
		out[j].TotalMs += float64(s.dur()) / 1e6
		out[j].SelfMs += float64(self[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
	}
	for j := range out {
		out[j].P50Us = median(durs[out[j].Name])
	}
	return out
}

// durationsUs returns the durations of the named spans in microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace: %w", err)
	}
	return path, nil
}

// report prints the per-name span summary and writes the spans out.
func (t *tracer) report(cfg runConfig, out *output) error {
	if t == nil {
		return nil
	}
	for _, s := range summarizeSpans(t.spans) {
		out.json("span", s)
	}
	if cfg.traceOut == "" {
		return nil
	}
	path, err := t.write(cfg.traceOut, cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	out.line("trace %d spans written to %s", len(t.spans), path)
	return nil
}
