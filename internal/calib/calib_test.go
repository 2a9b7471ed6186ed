package calib

import (
	"strings"
	"sync"
	"testing"
	"time"

	"tcq/internal/trace"
)

// feed replays a synthetic trace into a fresh probe of a.
func feed(a *Auditor, label string, gt *Truth, t trace.QueryTrace) {
	p := a.Track(label, gt)
	t.Replay(p)
}

// mkTrace builds a one-stage trace with the given prediction ratio and
// final estimate ± interval.
func mkTrace(query string, predicted, actual time.Duration, est, half float64) trace.QueryTrace {
	return trace.QueryTrace{
		Info: trace.QueryInfo{Query: query, Quota: 10 * time.Second},
		Stages: []trace.StageRecord{{
			Stage:     1,
			Predicted: predicted,
			Actual:    actual,
			Overshoot: float64(actual)/float64(predicted) - 1,
			Operators: []trace.OpStat{
				{Node: 2, Op: "select", StageOut: 100},
				{Node: 4, Op: "join", StageOut: 900},
			},
			Completed: true,
			InTime:    true,
		}},
		End: trace.QueryEnd{Stages: 1, Estimate: est, Interval: half},
	}
}

func TestCoverageAccounting(t *testing.T) {
	a := NewAuditor(Config{})
	// 3 hits, 1 miss against truth 1000.
	for i := 0; i < 3; i++ {
		feed(a, "q", &Truth{Value: 1000}, mkTrace("sel(r)", time.Second, time.Second, 990, 50))
	}
	feed(a, "q", &Truth{Value: 1000}, mkTrace("sel(r)", time.Second, time.Second, 900, 50))
	// One run without ground truth: audited, not coverage-checked.
	feed(a, "q", nil, mkTrace("sel(r)", time.Second, time.Second, 123, 1))

	rep := a.Report()
	if rep.Queries != 5 || rep.TruthN != 4 || rep.TruthHits != 3 {
		t.Fatalf("got queries=%d truthN=%d hits=%d, want 5/4/3", rep.Queries, rep.TruthN, rep.TruthHits)
	}
	if rep.Coverage != 0.75 {
		t.Fatalf("coverage = %v, want 0.75", rep.Coverage)
	}
	if !(rep.CoverageLo < 0.75 && 0.75 < rep.CoverageHi) {
		t.Fatalf("wilson interval [%v, %v] must bracket 0.75", rep.CoverageLo, rep.CoverageHi)
	}
	if len(rep.Shapes) != 1 {
		t.Fatalf("want 1 shape, got %d", len(rep.Shapes))
	}
	s := rep.Shapes[0]
	if s.Nominal != 0.95 {
		t.Fatalf("nominal defaulted to %v, want 0.95", s.Nominal)
	}
	if s.Verdict != "ok" && s.Verdict != "low" {
		t.Fatalf("unexpected verdict %q", s.Verdict)
	}
	// With only 4 observations the Wilson interval is wide enough that
	// 75% realized is still consistent with 95% nominal.
	if s.Verdict != "ok" {
		t.Fatalf("verdict = %q; wilson at n=4 should not reject 0.95 (interval [%v,%v])",
			s.Verdict, s.CoverageLo, s.CoverageHi)
	}
}

func TestDriftAttribution(t *testing.T) {
	a := NewAuditor(Config{})
	// ratio 1.5 → bucket le_2; dominant operator is the join (StageOut 900).
	feed(a, "q", nil, mkTrace("j(r,s)", 2*time.Second, 3*time.Second, 10, 1))
	rep := a.Report()
	if len(rep.Operators) != 1 || rep.Operators[0].Op != "join" {
		t.Fatalf("dominant-op attribution wrong: %+v", rep.Operators)
	}
	o := rep.Operators[0]
	if o.Stages != 1 || o.DriftMean != 1.5 || o.Worst != 0.5 {
		t.Fatalf("op drift wrong: %+v", o)
	}
	if len(o.DriftBuckets) != 1 || o.DriftBuckets[0].Le() != 2 || o.DriftBuckets[0].Count != 1 {
		t.Fatalf("bucket wrong: %+v", o.DriftBuckets)
	}
	s := rep.Shapes[0]
	if s.DriftN != 1 || s.DriftMean != 1.5 || s.WorstOvershoot != 0.5 || s.WorstStage != 1 {
		t.Fatalf("shape drift wrong: %+v", s)
	}
}

func TestDriftBucketEdges(t *testing.T) {
	cases := []struct {
		r float64
		k int
	}{
		{0.9, 0}, {1.0, 0}, {1.1, 1}, {2.0, 1}, {2.1, 2},
		{0.5, -1}, {0.4, -1}, {1e-9, -6}, {1e9, 6}, {0, -6}, {-1, -6},
	}
	for _, c := range cases {
		if got := trace.Log2Bucket(c.r, driftLo, driftHi); got != c.k {
			t.Errorf("drift bucket of %v = %d, want %d", c.r, got, c.k)
		}
	}
}

func TestFlightCapturePolicy(t *testing.T) {
	a := NewAuditor(Config{FlightSize: 2, OverspendFrac: 0.05})

	// Healthy run: no capture.
	feed(a, "ok", &Truth{Value: 100}, mkTrace("sel(r)", time.Second, time.Second, 100, 5))

	// CI miss.
	feed(a, "miss", &Truth{Value: 100}, mkTrace("sel(r)", time.Second, time.Second, 500, 5))

	// Deadline abort.
	ab := mkTrace("sel(r)", time.Second, time.Second, 0, 0)
	ab.Stages[0].Completed = false
	feed(a, "abort", nil, ab)

	// Overspend past 5% of the 10s quota.
	ov := mkTrace("sel(r)", time.Second, time.Second, 100, 5)
	ov.End.Overspent = true
	ov.End.Overspend = time.Second
	feed(a, "over", nil, ov)

	// Overspend below threshold: no capture.
	small := mkTrace("sel(r)", time.Second, time.Second, 100, 5)
	small.End.Overspent = true
	small.End.Overspend = 100 * time.Millisecond
	feed(a, "small", nil, small)

	recs := a.FlightRecords()
	if len(recs) != 2 {
		t.Fatalf("ring must hold 2, got %d", len(recs))
	}
	// Capacity 2, three captures: the oldest (ci-miss, seq 1) was
	// overwritten; chronological order of the survivors.
	if recs[0].Seq != 2 || recs[1].Seq != 3 {
		t.Fatalf("want seqs 2,3 got %d,%d", recs[0].Seq, recs[1].Seq)
	}
	if recs[0].Label != "abort" || recs[0].Reasons[0] != ReasonDeadlineAbort {
		t.Fatalf("rec 0 wrong: %+v", recs[0])
	}
	if recs[1].Label != "over" || recs[1].Reasons[0] != ReasonOverspend {
		t.Fatalf("rec 1 wrong: %+v", recs[1])
	}

	rep := a.Report()
	if rep.Flight.Captured != 3 || rep.Flight.Held != 2 || rep.Flight.Capacity != 2 {
		t.Fatalf("flight stats wrong: %+v", rep.Flight)
	}
	want := map[string]int64{ReasonCIMiss: 1, ReasonDeadlineAbort: 1, ReasonOverspend: 1}
	for _, rc := range rep.Flight.ByReason {
		if want[rc.Reason] != rc.Count {
			t.Fatalf("reason %s count %d, want %d", rc.Reason, rc.Count, want[rc.Reason])
		}
		delete(want, rc.Reason)
	}
	if len(want) != 0 {
		t.Fatalf("missing reasons: %v", want)
	}
}

func TestNilAuditorAndProbeSafe(t *testing.T) {
	var a *Auditor
	p := a.Track("x", &Truth{Value: 1})
	if p != nil {
		t.Fatal("nil auditor must return nil probe")
	}
	if p.Enabled() {
		t.Fatal("nil probe must report disabled")
	}
	p.BeginQuery(trace.QueryInfo{})
	p.StageDone(trace.StageRecord{})
	p.EndQuery(trace.QueryEnd{})
	p.Discard()
	if got := a.Report(); got.Queries != 0 {
		t.Fatalf("nil auditor report = %+v", got)
	}
	if got := a.FlightRecords(); got != nil {
		t.Fatalf("nil auditor flight records = %v", got)
	}
}

func TestReportDeterministic(t *testing.T) {
	build := func() string {
		a := NewAuditor(Config{FlightSize: 4})
		feed(a, "t0", &Truth{Value: 100}, mkTrace("sel(r)", time.Second, 1200*time.Millisecond, 101, 5))
		feed(a, "t1", &Truth{Value: 100}, mkTrace("sel(r)", time.Second, 900*time.Millisecond, 300, 5))
		feed(a, "t2", nil, mkTrace("j(r,s)", 2*time.Second, 2*time.Second, 50, 2))
		return RenderReport(a.Report())
	}
	r1, r2 := build(), build()
	if r1 != r2 {
		t.Fatalf("report not deterministic:\n%s\nvs\n%s", r1, r2)
	}
	for _, want := range []string{"calibration: 3 queries audited", "wilson95", "operator drift", "flight recorder: 1 captured"} {
		if !strings.Contains(r1, want) {
			t.Fatalf("report missing %q:\n%s", want, r1)
		}
	}
}

func TestAuditorConcurrent(t *testing.T) {
	a := NewAuditor(Config{FlightSize: 8, Metrics: trace.NewRegistry()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				truth := &Truth{Value: 100}
				est := 100.0
				if i%5 == 0 {
					est = 1000 // miss → capture
				}
				feed(a, "c", truth, mkTrace("sel(r)", time.Second, time.Second, est, 5))
				a.Report()
				a.FlightRecords()
			}
		}(g)
	}
	wg.Wait()
	rep := a.Report()
	if rep.Queries != 400 || rep.TruthN != 400 || rep.TruthHits != 320 {
		t.Fatalf("concurrent totals wrong: %+v", rep)
	}
	if rep.Flight.Captured != 80 || rep.Flight.Held != 8 {
		t.Fatalf("concurrent flight stats wrong: %+v", rep.Flight)
	}
	snap := a.cfg.Metrics.Snapshot()
	if snap.Counters["calibration_queries"] != 400 ||
		snap.Counters["calibration_truth_misses"] != 80 ||
		snap.Counters["calibration_flight_captures"] != 80 {
		t.Fatalf("metrics wrong: %+v", snap.Counters)
	}
	if snap.Histograms["calibration_drift_ratio"].Count != 400 {
		t.Fatalf("drift histogram count = %d, want 400", snap.Histograms["calibration_drift_ratio"].Count)
	}
}

// A zero-width interval around a wrong estimate is no usable CI: it
// must be excluded from the coverage rate, tallied as degenerate, and
// flight-captured under its own reason — not counted as an ordinary
// miss that drags realized coverage down.
func TestDegenerateCI(t *testing.T) {
	reg := trace.NewRegistry()
	a := NewAuditor(Config{Metrics: reg})
	truth := &Truth{Value: 500}
	feed(a, "d1", truth, mkTrace("sel(r)", time.Second, time.Second, 0, 0))    // degenerate: 0±0 vs 500
	feed(a, "d2", truth, mkTrace("sel(r)", time.Second, time.Second, 495, 10)) // hit
	feed(a, "d3", truth, mkTrace("sel(r)", time.Second, time.Second, 500, 0))  // exact: 500±0 is a hit
	rep := a.Report()
	if rep.TruthN != 2 || rep.TruthHits != 2 || rep.TruthDegenerate != 1 {
		t.Fatalf("truth accounting: n=%d hits=%d degen=%d, want 2/2/1", rep.TruthN, rep.TruthHits, rep.TruthDegenerate)
	}
	if rep.Coverage != 1 {
		t.Fatalf("coverage = %v, want 1 (degenerate excluded)", rep.Coverage)
	}
	s := rep.Shapes[0]
	if s.TruthDegenerate != 1 || s.TruthN != 2 {
		t.Fatalf("shape accounting: %+v", s)
	}
	recs := a.FlightRecords()
	if len(recs) != 1 || recs[0].Reasons[0] != ReasonDegenerateCI {
		t.Fatalf("degenerate run should be flight-captured as %s: %+v", ReasonDegenerateCI, recs)
	}
	snap := reg.Snapshot()
	if snap.Counters["calibration_truth_degenerate"] != 1 ||
		snap.Counters["calibration_truth_hits"] != 2 ||
		snap.Counters["calibration_anomaly_degenerate_ci"] != 1 {
		t.Fatalf("metrics: %+v", snap.Counters)
	}
	out := RenderReport(rep)
	for _, want := range []string{"degenerate", "(2/2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
