package tcq

import (
	"strings"
	"testing"
	"time"

	"tcq/internal/ra"
	"tcq/internal/trace"
)

// setDB builds two overlapping single-column relations for the set
// operator tests.
func setDB(t *testing.T) *DB {
	t.Helper()
	db := Open(WithSimulatedClock(3))
	for _, spec := range []struct {
		name  string
		lo, n int
	}{{"evens", 0, 300}, {"odds", 100, 300}} {
		rel, err := db.CreateRelation(spec.name, []Column{{Name: "a", Type: Int}}, 200)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.n; i++ {
			if err := rel.Insert(spec.lo + i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestExplainUnion(t *testing.T) {
	db := setDB(t)
	q := Rel("evens").Union(Rel("odds"))
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"inclusion–exclusion over 3 terms", "scan evens", "scan odds", "sort-merge intersect"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain(union) missing %q in:\n%s", want, out)
		}
	}
}

func TestExplainDifference(t *testing.T) {
	db := setDB(t)
	q := Rel("evens").Minus(Rel("odds"))
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"term 1 (+1)", "term 2 (-1)", "scan evens", "sort-merge intersect"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain(difference) missing %q in:\n%s", want, out)
		}
	}
}

// TestExplainExprSetOps exercises the explicit Union/Difference cases of
// the plan renderer directly — Terms normally decomposes them away, but
// the renderer must still recurse into children rather than flattening
// the node to its String form.
func TestExplainExprSetOps(t *testing.T) {
	db := setDB(t)
	var b strings.Builder
	u := &ra.Union{Left: &ra.Base{Name: "evens"}, Right: &ra.Base{Name: "odds"}}
	explainExpr(&b, u, 0, db)
	d := &ra.Difference{Left: &ra.Base{Name: "evens"}, Right: &ra.Base{Name: "odds"}}
	explainExpr(&b, d, 0, db)
	out := b.String()
	for _, want := range []string{"union (inclusion–exclusion)", "difference (inclusion–exclusion)", "  scan evens (300 tuples"} {
		if !strings.Contains(out, want) {
			t.Errorf("explainExpr missing %q in:\n%s", want, out)
		}
	}
}

func TestExplainMissingRelation(t *testing.T) {
	db := setDB(t)
	if _, err := db.Explain(Rel("nosuch")); err == nil {
		t.Fatal("Explain of a missing relation should fail")
	}
}

func TestExplainQueryError(t *testing.T) {
	db := setDB(t)
	bad, _ := Parse("count(")
	if _, err := db.Explain(bad); err == nil {
		t.Fatal("Explain of an invalid query should fail")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := demoDB(t, 2000, 0)
	q := Rel("orders").Where(Col("amount").Lt(500))
	out, err := db.ExplainAnalyze(q, EstimateOptions{Quota: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"count(select", "strategy=one-at-a-time", "operators (final-stage estimates):",
		"select", "sel=", "relations sampled:", "orders", "stages:", "stage", "result:",
		"calibration:", "cost ratio mean", "worst overshoot",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze missing %q in:\n%s", want, out)
		}
	}
}

// With GroundTruth set, ExplainAnalyze appends a truth-audit line to
// the calibration footer scoring the final CI against the exact answer.
func TestExplainAnalyzeGroundTruthFooter(t *testing.T) {
	db := demoDB(t, 2000, 0)
	q := Rel("orders").Where(Col("amount").Lt(500))
	truth := 999999.0 // far outside any plausible interval → miss
	out, err := db.ExplainAnalyze(q, EstimateOptions{Quota: 10 * time.Second, Seed: 1, GroundTruth: &truth})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ground truth 999999: CI miss") {
		t.Errorf("footer missing truth-audit miss line:\n%s", out)
	}
	// The estimate itself must be unaffected by declaring a truth
	// (read-only contract): rendering without truth differs only by the
	// audit line.
	plain, err := demoDB(t, 2000, 0).ExplainAnalyze(q, EstimateOptions{Quota: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, plain) {
		t.Errorf("GroundTruth changed the report body:\n--- plain\n%s\n--- with truth\n%s", plain, out)
	}
}

// TestExplainAnalyzeParallelIdentical: the rendered plan-with-stages
// report is built entirely from the collected trace, and the lane
// record/replay machinery makes traces independent of the worker
// count — so ExplainAnalyze output must be byte-identical between a
// serial and a parallel run of the same seeded session.
func TestExplainAnalyzeParallelIdentical(t *testing.T) {
	render := func(workers int) string {
		db := demoDB(t, 2000, 0)
		q := Rel("orders").Where(Col("amount").Lt(500))
		out, err := db.ExplainAnalyze(q, EstimateOptions{
			Quota: 10 * time.Second, Seed: 1, Parallelism: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := render(0)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != serial {
			t.Errorf("ExplainAnalyze diverges at Parallelism=%d:\n--- serial\n%s\n--- parallel\n%s",
				workers, serial, got)
		}
	}
}

func TestExplainAnalyzeError(t *testing.T) {
	db := setDB(t)
	bad, _ := Parse("count(")
	if _, err := db.ExplainAnalyze(bad, EstimateOptions{Quota: time.Second}); err == nil {
		t.Fatal("ExplainAnalyze of an invalid query should fail")
	}
}

func TestEstimateCollectTrace(t *testing.T) {
	db := demoDB(t, 2000, 0)
	q := Rel("orders").Where(Col("amount").Lt(500))
	col := trace.NewCollector()
	est, err := db.CountEstimate(q, EstimateOptions{Quota: 10 * time.Second, Seed: 1, Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Trace()
	if len(tr.Stages) != est.Stages {
		t.Fatalf("trace has %d stage records, estimate reports %d stages", len(tr.Stages), est.Stages)
	}
	if tr.End.Estimate != est.Value || tr.End.Stages != est.Stages {
		t.Fatalf("trace end record inconsistent: %+v vs value %v", tr.End, est.Value)
	}
	s1 := tr.Stages[0]
	if s1.Fraction <= 0 || s1.Blocks <= 0 || len(s1.Operators) == 0 || len(s1.Relations) == 0 {
		t.Fatalf("first stage record incomplete: %+v", s1)
	}
	if s1.Charges.BlocksRead <= 0 {
		t.Fatalf("stage charges not populated: %+v", s1.Charges)
	}

	// Metrics registry should have aggregated the run.
	snap := db.Metrics()
	if snap.Counters["queries"] < 1 || snap.Counters["stages"] < 1 {
		t.Fatalf("metrics not recorded: %+v", snap.Counters)
	}
	db.ResetMetrics()
	if n := db.Metrics().Counters["queries"]; n != 0 {
		t.Fatalf("ResetMetrics left queries=%d", n)
	}
}
