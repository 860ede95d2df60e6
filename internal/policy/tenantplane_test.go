package policy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// planeSpec is a test plane item: a task or an invocation, numbered in
// submission order.
type planeSpec struct {
	task bool
	n    int
}

func (s planeSpec) PlaneTask() bool { return s.task }

type released struct {
	it     planeSpec
	tenant string
	seq    int64
}

func drainAll(p *TenantPlane[planeSpec]) []released {
	var out []released
	p.Drain(func(it planeSpec, tenant string, seq int64) {
		out = append(out, released{it, tenant, seq})
	})
	return out
}

// One tenant submitting both kinds: only invocations take and advance
// the routing cursor, so tasks interleaved between them leave the
// invocation sequence gapless.
func TestTenantPlaneCursorAdvancesOnlyOnInvocations(t *testing.T) {
	p := NewTenantPlane[planeSpec]([]core.TenantSpec{{Name: "a"}}, nil)
	kinds := []bool{false, true, false, true, true, false}
	for i, task := range kinds {
		if st, d := p.Admit("a", planeSpec{task: task, n: i}); st == nil || d.Verdict != AdmitAccept {
			t.Fatalf("Admit #%d = %v %+v, want an accept", i, st, d)
		}
	}
	got := drainAll(p)
	want := []released{
		{planeSpec{false, 0}, "a", 0},
		{planeSpec{true, 1}, "a", 0},
		{planeSpec{false, 2}, "a", 1},
		{planeSpec{true, 3}, "a", 0},
		{planeSpec{true, 4}, "a", 0},
		{planeSpec{false, 5}, "a", 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain = %+v\nwant  %+v", got, want)
	}
	// The cursor persists across drains.
	p.Admit("a", planeSpec{n: 6})
	if got := drainAll(p); len(got) != 1 || got[0].seq != 3 {
		t.Fatalf("next invocation drained as %+v, want seq 3", got)
	}
}

func TestTenantPlaneReleaseUnknownIsNoop(t *testing.T) {
	rec := &Recorder{}
	p := NewTenantPlane[planeSpec]([]core.TenantSpec{{Name: "a", Quota: 1}}, rec)
	p.Admit("a", planeSpec{n: 1})
	p.Admit("a", planeSpec{n: 2})
	drainAll(p)
	before, trace := p.Stats(), len(rec.Decisions)
	for _, name := range []string{"", "ghost"} {
		if p.Release(name) {
			t.Fatalf("Release(%q) reported a registered tenant", name)
		}
	}
	if got := p.Stats(); !reflect.DeepEqual(got, before) || len(rec.Decisions) != trace {
		t.Fatalf("Release of unregistered tenants changed the plane: %+v -> %+v", before, got)
	}
	// An unregistered tenant's spec is not the plane's: nothing is
	// recorded or queued.
	if st, _ := p.Admit("ghost", planeSpec{n: 3}); st != nil || len(rec.Decisions) != trace {
		t.Fatal("Admit for an unregistered tenant must leave the plane untouched")
	}
	// A registered release returns one unit and never goes negative.
	p.Release("a")
	p.Release("a")
	if s := p.Stats()[0]; s.InFlight != 0 || s.Done != 2 {
		t.Fatalf("after two releases: %+v, want InFlight 0 Done 2", s)
	}
}

func TestTenantPlaneShedIsDroppedAndCounted(t *testing.T) {
	rec := &Recorder{}
	p := NewTenantPlane[planeSpec]([]core.TenantSpec{{Name: "a", MaxQueue: 1}}, rec)
	p.Admit("a", planeSpec{n: 1})
	st, d := p.Admit("a", planeSpec{n: 2})
	if st == nil || d.Verdict != AdmitShed {
		t.Fatalf("second Admit over MaxQueue 1 = %+v, want shed", d)
	}
	if st.Queued != 1 {
		t.Fatalf("shed spec was queued: Queued = %d", st.Queued)
	}
	if got := drainAll(p); len(got) != 1 || got[0].it.n != 1 {
		t.Fatalf("drain = %+v, want only the admitted spec", got)
	}
	s := p.Stats()[0]
	if s.Submits != 2 || s.Shed != 1 || s.Throttled != 0 {
		t.Fatalf("stats = %+v, want 2 submits, 1 shed", s)
	}
	if want := TraceAdmit("a", d); rec.Decisions[1] != want {
		t.Fatalf("trace[1] = %q, want %q", rec.Decisions[1], want)
	}
}

func TestTenantPlaneCheckQuiescence(t *testing.T) {
	p := NewTenantPlane[planeSpec]([]core.TenantSpec{{Name: "a", Quota: 1}, {Name: "b"}}, nil)
	if err := p.CheckQuiescence(); err != nil {
		t.Fatalf("fresh plane: %v", err)
	}
	p.Admit("b", planeSpec{n: 1})
	if err := p.CheckQuiescence(); err == nil || !strings.Contains(err.Error(), `"b" still has 1 specs queued`) {
		t.Fatalf("queued work: err = %v", err)
	}
	drainAll(p)
	if err := p.CheckQuiescence(); err == nil || !strings.Contains(err.Error(), `"b" still holds 1 in-flight quota units`) {
		t.Fatalf("held quota: err = %v", err)
	}
	p.Release("b")
	if err := p.CheckQuiescence(); err != nil {
		t.Fatalf("after release: %v", err)
	}
}
