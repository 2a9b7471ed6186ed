package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *QueryTrace {
	return &QueryTrace{
		Info: QueryInfo{
			Query: "intersect(r1, r2)", Quota: 10 * time.Second,
			Strategy: "one-at-a-time(dβ=12)", Mode: "overrun",
			Plan: "full", Sampling: "cluster", Seed: 7,
		},
		Stages: []StageRecord{
			{
				Stage: 1, Fraction: 0.1, SearchIters: 9, DBeta: 12,
				Predicted: 4 * time.Second, Actual: 5 * time.Second,
				Overshoot: 0.25, Remaining: 5 * time.Second, Blocks: 40,
				Relations: []RelationDraw{{Relation: "r1", Blocks: 20, Tuples: 100, CumBlocks: 20, CumFraction: 0.1}},
				Operators: []OpStat{{Node: 2, Op: "intersect", Sel: 0.001, SelPlus: 0.002, StageOut: 9, CumOut: 9, CumPoints: 10000}},
				Charges:   Charges{BlocksRead: 40, Comparisons: 1234},
				Estimate:  9000, StdErr: 400, Interval: 784,
				Completed: true, InTime: true,
			},
			{Stage: 2, Fraction: 0.05, Blocks: 20, Completed: false},
		},
		End: QueryEnd{
			Stages: 1, Blocks: 40, Elapsed: 11 * time.Second,
			Utilization: 0.5, StopReason: "quota exhausted",
			Estimate: 9000, Interval: 784,
		},
	}
}

func TestCollectorReplay(t *testing.T) {
	src := sampleTrace()
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("collector must be enabled")
	}
	src.Replay(c)
	got := c.Trace()
	if got.Info != src.Info {
		t.Errorf("info mismatch: %+v vs %+v", got.Info, src.Info)
	}
	if len(got.Stages) != 2 || got.Stages[0].Blocks != 40 || got.Stages[1].Completed {
		t.Errorf("stages mismatch: %+v", got.Stages)
	}
	if got.End != src.End {
		t.Errorf("end mismatch: %+v", got.End)
	}
}

func TestNop(t *testing.T) {
	if Nop.Enabled() {
		t.Fatal("Nop must be disabled")
	}
	// Must not panic.
	sampleTrace().Replay(Nop)
}

func TestCombine(t *testing.T) {
	if got := Combine(nil, Nop); got != Nop {
		t.Errorf("Combine(nil, Nop) = %v, want Nop", got)
	}
	c := NewCollector()
	if got := Combine(nil, c, Nop); got != Tracer(c) {
		t.Errorf("Combine should unwrap a single tracer, got %T", got)
	}
	// Disabled tracers (a typed-nil collector, a writer-less Text) are
	// dropped like nils, so a switched-off observer costs no chain.
	var off *Collector
	if got := Combine(off, NewText(nil), c); got != Tracer(c) {
		t.Errorf("Combine should drop disabled tracers, got %T", got)
	}
	c2 := NewCollector()
	m := Combine(c, c2)
	if !m.Enabled() {
		t.Fatal("combined tracer must be enabled")
	}
	sampleTrace().Replay(m)
	if len(c.Trace().Stages) != 2 || len(c2.Trace().Stages) != 2 {
		t.Error("fan-out did not reach every target")
	}
}

func TestTextTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := NewText(&buf)
	if !tr.Enabled() {
		t.Fatal("text tracer must be enabled")
	}
	sampleTrace().Replay(tr)
	out := buf.String()
	for _, want := range []string{"stage 1:", "f=0.1000", "predicted=4s", "actual=5s", "aborted=false",
		"node 2 intersect: sel=0.001000", "stage 2:", "aborted=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("text trace missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLinesDeterministicAndParsable(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		j := NewJSONLines(&buf)
		j.Exp, j.Label, j.Trial = "fig5.2", "dβ=12", 3
		sampleTrace().Replay(j)
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("JSON-lines output is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	if len(lines) != 4 { // query + 2 stages + end
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), a)
	}
	var types []string
	for _, ln := range lines {
		var r Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("unparsable line %q: %v", ln, err)
		}
		if r.Exp != "fig5.2" || r.Label != "dβ=12" || r.Trial != 3 {
			t.Errorf("scope not stamped: %+v", r)
		}
		types = append(types, r.Type)
	}
	if got := strings.Join(types, ","); got != "query,stage,stage,end" {
		t.Errorf("record types = %s", got)
	}
	var first Record
	if err := json.Unmarshal([]byte(lines[1]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Stage == nil || first.Stage.Predicted != 4*time.Second || first.Stage.Charges.Comparisons != 1234 {
		t.Errorf("stage payload mismatch: %+v", first.Stage)
	}
}

func TestChargesSub(t *testing.T) {
	a := Charges{BlocksRead: 10, TuplesRead: 50, Comparisons: 7, TempBytes: 2048, DeadlinePolls: 3}
	b := Charges{BlocksRead: 4, TuplesRead: 20, Comparisons: 2, TempBytes: 1024, DeadlinePolls: 1}
	d := a.Sub(b)
	want := Charges{BlocksRead: 6, TuplesRead: 30, Comparisons: 5, TempBytes: 1024, DeadlinePolls: 2}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}

func TestRenderStages(t *testing.T) {
	out := RenderStages(sampleTrace().Stages)
	for _, want := range []string{"stage", "0.1000", "(aborted)", "9000.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("stage table missing %q:\n%s", want, out)
		}
	}
}
