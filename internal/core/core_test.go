package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"tcq/internal/stats"

	"tcq/internal/exec"
	"tcq/internal/ra"
	"tcq/internal/storage"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/vclock"
	"tcq/internal/workload"
)

// smallSelect builds a 1,000-tuple (200 blocks) relation where exactly
// k tuples satisfy a < k, plus an engine with the given clock seed.
func smallSelect(t *testing.T, seed int64, k int) (*Engine, ra.Expr) {
	t.Helper()
	clk := vclock.NewSim(seed, 0.03)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	if _, err := workload.SelectRelation(st, "r", 1000, k, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	e := &ra.Select{Input: &ra.Base{Name: "r"},
		Pred: &ra.Cmp{Left: ra.Col{Name: "a"}, Op: ra.Lt, Right: ra.Const{Value: int64(k)}}}
	return NewEngine(st), e
}

func smallJoin(t *testing.T, seed int64) (*Engine, ra.Expr) {
	t.Helper()
	clk := vclock.NewSim(seed, 0.03)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	if _, _, err := workload.JoinPair(st, "r", "s", 1000, 7000, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	e := &ra.Join{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"},
		On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
	return NewEngine(st), e
}

func TestCountRequiresQuota(t *testing.T) {
	g, e := smallSelect(t, 1, 100)
	if _, err := g.Count(e, Options{}); err == nil {
		t.Error("missing quota should error")
	}
}

func TestCountUnknownRelation(t *testing.T) {
	g, _ := smallSelect(t, 1, 100)
	_, err := g.Count(&ra.Base{Name: "missing"}, Options{Quota: time.Second})
	if err == nil {
		t.Error("unknown relation should error")
	}
}

func TestCountEmptyRelation(t *testing.T) {
	clk := vclock.NewSim(1, 0)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	if _, err := st.CreateRelation("empty", workload.Schema()); err != nil {
		t.Fatal(err)
	}
	g := NewEngine(st)
	if _, err := g.Count(&ra.Base{Name: "empty"}, Options{Quota: time.Second}); err == nil {
		t.Error("empty relation should error")
	}
}

func TestCountBasicResultShape(t *testing.T) {
	g, e := smallSelect(t, 7, 100)
	res, err := g.Count(e, Options{
		Quota:    5 * time.Second,
		Mode:     Overrun,
		Strategy: &timectrl.OneAtATime{DBeta: 12},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatalf("no stages completed: %+v", res)
	}
	if res.Blocks < 1 || res.Blocks > 200 {
		t.Errorf("blocks = %d", res.Blocks)
	}
	if res.Utilization < 0 || res.Utilization > 1 {
		t.Errorf("utilization = %g", res.Utilization)
	}
	if res.Successful > res.Elapsed {
		t.Error("successful time cannot exceed elapsed")
	}
	if res.Estimate.Value <= 0 {
		t.Errorf("estimate = %g", res.Estimate.Value)
	}
	if len(res.StageRecords) < res.Stages {
		t.Error("missing stage records")
	}
	if res.StopReason == "" {
		t.Error("empty stop reason")
	}
	want, _ := g.ExactCount(e)
	if rel := math.Abs(res.Estimate.Value-float64(want)) / float64(want); rel > 0.8 {
		t.Errorf("estimate %g too far from exact %d", res.Estimate.Value, want)
	}
}

func TestCensusWhenQuotaIsHuge(t *testing.T) {
	g, e := smallSelect(t, 3, 250)
	res, err := g.Count(e, Options{Quota: time.Hour, Mode: Overrun, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != "sample exhausted (census reached)" {
		t.Errorf("stop reason = %q", res.StopReason)
	}
	if res.Blocks != 200 {
		t.Errorf("census should evaluate all 200 blocks, got %d", res.Blocks)
	}
	want, _ := g.ExactCount(e)
	if math.Abs(res.Estimate.Value-float64(want)) > 1e-6 {
		t.Errorf("census estimate %g != exact %d", res.Estimate.Value, want)
	}
	if res.Estimate.Variance != 0 {
		t.Errorf("census variance = %g, want 0", res.Estimate.Variance)
	}
}

func TestHardModeNeverOverruns(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g, e := smallSelect(t, seed, 100)
		quota := 3 * time.Second
		res, err := g.Count(e, Options{
			Quota:    quota,
			Mode:     HardDeadline,
			Strategy: &timectrl.OneAtATime{DBeta: 0}, // maximally risky
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A hard deadline may only exceed the quota by one deadline-poll
		// granule (a block read / 64-tuple batch), not by a whole stage.
		slack := 2 * storage.SunProfile().BlockRead
		if res.Elapsed > quota+slack {
			t.Errorf("seed %d: elapsed %v exceeded quota %v by more than %v",
				seed, res.Elapsed, quota, slack)
		}
		if res.Overspent {
			// The final stage either aborted mid-flight or squeaked past
			// the quota by at most the poll granule checked above.
			last := res.StageRecords[len(res.StageRecords)-1]
			if last.Completed && res.Elapsed > quota+slack {
				t.Errorf("seed %d: completed stage overshot the quota", seed)
			}
		}
	}
}

func TestOverrunModeMeasuresOverspend(t *testing.T) {
	overspends := 0
	var totalOvsp time.Duration
	for seed := int64(1); seed <= 30; seed++ {
		g, e := smallSelect(t, seed, 100)
		quota := 3 * time.Second
		res, err := g.Count(e, Options{
			Quota:    quota,
			Mode:     Overrun,
			Strategy: &timectrl.OneAtATime{DBeta: 0},
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Overspent {
			overspends++
			totalOvsp += res.Overspend
			if res.Overspend <= 0 {
				t.Errorf("seed %d: overspent without positive overspend", seed)
			}
			if res.Elapsed <= quota {
				t.Errorf("seed %d: overspent but elapsed %v <= quota", seed, res.Elapsed)
			}
		}
	}
	// d_β = 0 plans to the expected cost: risk should be substantial
	// (the paper reports ~50%) — at least a quarter of runs here.
	if overspends < 8 || overspends > 28 {
		t.Errorf("dβ=0 overspend count = %d/30, expected a substantial share", overspends)
	}
	// Overspends should be small relative to the quota (run-time
	// estimation works): average below half the quota.
	if avg := totalOvsp / time.Duration(max(overspends, 1)); avg > 1500*time.Millisecond {
		t.Errorf("average overspend %v too large", avg)
	}
}

func TestDBetaReducesRiskAndAddsStages(t *testing.T) {
	run := func(dBeta float64) (risk float64, stages float64) {
		overspends, totalStages := 0, 0
		const trials = 30
		for seed := int64(1); seed <= trials; seed++ {
			g, e := smallSelect(t, seed, 100)
			res, err := g.Count(e, Options{
				Quota:    3 * time.Second,
				Mode:     Overrun,
				Strategy: &timectrl.OneAtATime{DBeta: dBeta},
				Seed:     seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Overspent {
				overspends++
			}
			totalStages += res.Stages
		}
		return float64(overspends) / trials, float64(totalStages) / trials
	}
	risk0, stages0 := run(0)
	risk48, stages48 := run(48)
	if !(risk48 < risk0) {
		t.Errorf("risk did not fall with dβ: %.2f -> %.2f", risk0, risk48)
	}
	if !(stages48 > stages0) {
		t.Errorf("stages did not grow with dβ: %.2f -> %.2f", stages0, stages48)
	}
}

func TestJoinQueryUnderQuota(t *testing.T) {
	g, e := smallJoin(t, 5)
	res, err := g.Count(e, Options{
		Quota:    4 * time.Second,
		Mode:     Overrun,
		Strategy: &timectrl.OneAtATime{DBeta: 12},
		Initial:  timectrl.Initials{Select: 1, Join: 0.1, Project: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatal("join query completed no stages")
	}
	want, _ := g.ExactCount(e) // 7000
	if res.Estimate.Value <= 0 || math.Abs(res.Estimate.Value-float64(want))/float64(want) > 1.5 {
		t.Errorf("join estimate %g vs exact %d", res.Estimate.Value, want)
	}
}

func TestErrorTargetStopsEarly(t *testing.T) {
	g, e := smallSelect(t, 9, 500) // high selectivity: tight CIs quickly
	res, err := g.Count(e, Options{
		Quota: time.Hour,
		Mode:  Overrun,
		Stop:  timectrl.ErrorTarget{RelHalfWidth: 0.2, Level: 0.9},
		Seed:  9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason == "sample exhausted (census reached)" {
		t.Error("error target should stop before census")
	}
	if res.Estimate.RelHalfWidth(0.9) > 0.2+1e-9 {
		t.Errorf("stopped with rel half-width %g > 0.2", res.Estimate.RelHalfWidth(0.9))
	}
}

func TestMaxStagesCriterion(t *testing.T) {
	g, e := smallSelect(t, 2, 100)
	res, err := g.Count(e, Options{
		Quota:    time.Hour,
		Mode:     Overrun,
		Strategy: &timectrl.Heuristic{Gamma: 0.001},
		Stop:     timectrl.MaxStages{N: 2},
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 2 {
		t.Errorf("stages = %d, want 2", res.Stages)
	}
}

func TestTracerSeesEveryStage(t *testing.T) {
	g, e := smallSelect(t, 4, 100)
	col := trace.NewCollector()
	_, err := g.Count(e, Options{
		Quota:    time.Hour,
		Mode:     Overrun,
		Strategy: &timectrl.Heuristic{Gamma: 0.001},
		Stop:     timectrl.MaxStages{N: 3},
		Tracer:   col,
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := col.Trace().Stages
	if len(seen) != 3 {
		t.Fatalf("tracer saw %d stages, want 3", len(seen))
	}
	for i, r := range seen {
		if r.Stage != i+1 {
			t.Errorf("stage %d has index %d", i, r.Stage)
		}
		if !r.Completed || r.Blocks < 1 {
			t.Errorf("stage record %d looks wrong: %+v", i, r)
		}
	}
}

func TestUnionQueryThroughEngine(t *testing.T) {
	clk := vclock.NewSim(11, 0.02)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	rng := rand.New(rand.NewSource(11))
	if _, _, err := workload.IntersectPair(st, "r", "s", 1000, 400, rng); err != nil {
		t.Fatal(err)
	}
	g := NewEngine(st)
	e := &ra.Union{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"}}
	want, err := g.ExactCount(e) // 1000 + 1000 - 400 = 1600
	if err != nil {
		t.Fatal(err)
	}
	if want != 1600 {
		t.Fatalf("exact union = %d, want 1600", want)
	}
	res, err := g.Count(e, Options{Quota: time.Hour, Mode: Overrun, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Census: must be exact.
	if math.Abs(res.Estimate.Value-1600) > 1e-6 {
		t.Errorf("union census estimate = %g, want 1600", res.Estimate.Value)
	}
}

func TestPartialFulfillmentPlanRuns(t *testing.T) {
	g, e := smallJoin(t, 6)
	res, err := g.Count(e, Options{
		Quota: 3 * time.Second,
		Mode:  Overrun,
		Plan:  exec.PartialFulfillment,
		Seed:  6,
		Initial: timectrl.Initials{
			Select: 1, Join: 0.1, Project: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatal("partial plan completed no stages")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() *Result {
		g, e := smallSelect(t, 21, 100)
		res, err := g.Count(e, Options{Quota: 3 * time.Second, Mode: Overrun, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Estimate.Value != b.Estimate.Value || a.Stages != b.Stages ||
		a.Blocks != b.Blocks || a.Elapsed != b.Elapsed {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}

func TestModeString(t *testing.T) {
	if HardDeadline.String() != "hard" || Overrun.String() != "overrun" {
		t.Error("mode names wrong")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSumAndAvgAggregates(t *testing.T) {
	g, e := smallSelect(t, 13, 100)
	// Exact references.
	wantSum, err := g.ExactSum(e, "id")
	if err != nil {
		t.Fatal(err)
	}
	wantAvg, err := g.ExactAvg(e, "id")
	if err != nil {
		t.Fatal(err)
	}
	if wantSum <= 0 || wantAvg <= 0 {
		t.Fatalf("bad references: sum=%g avg=%g", wantSum, wantAvg)
	}
	// Census (huge quota) must reproduce both exactly.
	sumRes, err := g.Count(e, Options{
		Quota: time.Hour, Mode: Overrun, Seed: 13,
		Agg: AggSum, AggColumn: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sumRes.Estimate.Value-wantSum) > 1e-6 {
		t.Errorf("census SUM = %g, want %g", sumRes.Estimate.Value, wantSum)
	}
	g2, e2 := smallSelect(t, 13, 100)
	avgRes, err := g2.Count(e2, Options{
		Quota: time.Hour, Mode: Overrun, Seed: 13,
		Agg: AggAvg, AggColumn: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avgRes.Estimate.Value-wantAvg)/wantAvg > 1e-9 {
		t.Errorf("census AVG = %g, want %g", avgRes.Estimate.Value, wantAvg)
	}
	// Constrained SUM lands in the ballpark.
	g3, e3 := smallSelect(t, 13, 100)
	res, err := g3.Count(e3, Options{
		Quota: 3 * time.Second, Mode: Overrun, Seed: 13,
		Agg: AggSum, AggColumn: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Value <= 0 {
		t.Errorf("constrained SUM = %g", res.Estimate.Value)
	}
	if rel := math.Abs(res.Estimate.Value-wantSum) / wantSum; rel > 1.0 {
		t.Errorf("constrained SUM %g too far from %g", res.Estimate.Value, wantSum)
	}
}

func TestAggregateOptionValidation(t *testing.T) {
	g, e := smallSelect(t, 1, 100)
	if _, err := g.Count(e, Options{Quota: time.Second, Agg: AggSum}); err == nil {
		t.Error("AggSum without AggColumn should fail")
	}
	if _, err := g.Count(e, Options{Quota: time.Second, Agg: AggSum, AggColumn: "zz"}); err == nil {
		t.Error("unknown aggregate column should fail")
	}
	if AggCount.String() != "count" || AggSum.String() != "sum" || AggAvg.String() != "avg" {
		t.Error("AggKind names wrong")
	}
}

func TestPrestoredSelectivityOracle(t *testing.T) {
	g, e := smallJoin(t, 17)
	res, err := g.Count(e, Options{
		Quota:                  3 * time.Second,
		Mode:                   Overrun,
		Seed:                   17,
		PrestoredSelectivities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatal("oracle run completed no stages")
	}
	// With exact selectivities the first stage is sized against the true
	// cost, so the plan should be close: |predicted - actual| within the
	// load-noise envelope for the first stage.
	first := res.StageRecords[0]
	ratio := first.Actual.Seconds() / first.Predicted.Seconds()
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("oracle first-stage prediction ratio %.2f (pred %v, actual %v)",
			ratio, first.Predicted, first.Actual)
	}
}

func TestHistogramSelectivitySource(t *testing.T) {
	g, e := smallSelect(t, 19, 100)
	// smallSelect's engine wraps a store we can reach via the histogram
	// builder path: build stats, then run with them.
	cat, err := BuildHistograms(g.store, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cat.Get("r", "a"); !ok {
		t.Fatal("histogram for r.a missing")
	}
	res, err := g.Count(e, Options{
		Quota:      3 * time.Second,
		Mode:       Overrun,
		Seed:       19,
		Histograms: cat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatal("histogram run completed no stages")
	}
	// The histogram knows sel(a < 100) ≈ 0.1 up front, so the first
	// stage should be planned against ~the true cost, not the sel=1
	// maximum: its prediction must be within the noise envelope.
	first := res.StageRecords[0]
	ratio := first.Actual.Seconds() / first.Predicted.Seconds()
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("histogram first-stage ratio %.2f (pred %v, actual %v)",
			ratio, first.Predicted, first.Actual)
	}
}

func TestHistogramFirstStageBeatsMaxAssumption(t *testing.T) {
	// With histograms the first stage is sized against sel≈0.1 instead
	// of sel=1, so it should draw more blocks for the same quota.
	run := func(hist bool) int {
		g, e := smallSelect(t, 23, 100)
		opts := Options{Quota: 4 * time.Second, Mode: Overrun, Seed: 23}
		if hist {
			cat, err := BuildHistograms(g.store, 20)
			if err != nil {
				t.Fatal(err)
			}
			opts.Histograms = cat
		}
		res, err := g.Count(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.StageRecords) == 0 {
			t.Fatal("no stages")
		}
		return res.StageRecords[0].Blocks
	}
	withHist, without := run(true), run(false)
	if withHist <= without {
		t.Errorf("histogram first stage drew %d blocks, max-assumption drew %d", withHist, without)
	}
}

func TestAccountingInvariants(t *testing.T) {
	// Across many runs: 0 <= Successful <= Quota; Wasted = Quota −
	// Successful; Elapsed >= Successful; overspend implies Elapsed >
	// Quota (overrun mode).
	for seed := int64(1); seed <= 20; seed++ {
		g, e := smallSelect(t, seed, 100)
		quota := 3 * time.Second
		res, err := g.Count(e, Options{Quota: quota, Mode: Overrun, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Successful < 0 || res.Successful > quota {
			t.Errorf("seed %d: successful %v outside [0, quota]", seed, res.Successful)
		}
		if got := res.Wasted + res.Successful; got != quota {
			t.Errorf("seed %d: wasted+successful = %v, want %v", seed, got, quota)
		}
		if res.Elapsed < res.Successful {
			t.Errorf("seed %d: elapsed %v < successful %v", seed, res.Elapsed, res.Successful)
		}
		if res.Overspent && res.Elapsed <= quota {
			t.Errorf("seed %d: overspent but elapsed %v <= quota", seed, res.Elapsed)
		}
		if !res.Overspent && res.Overspend != 0 {
			t.Errorf("seed %d: overspend %v without flag", seed, res.Overspend)
		}
		// Stage records are contiguous and blocks sum up.
		blocks := 0
		for i, r := range res.StageRecords {
			if r.Index != i+1 {
				t.Errorf("seed %d: stage %d has index %d", seed, i, r.Index)
			}
			if r.InTime && r.Completed {
				blocks += r.Blocks
			}
		}
		if blocks != res.Blocks {
			t.Errorf("seed %d: in-time stage blocks %d != result blocks %d", seed, blocks, res.Blocks)
		}
	}
}

func TestValueFunctionStopsEngine(t *testing.T) {
	g, e := smallSelect(t, 29, 500)
	// A quota that funds several ~3s stages; the 10s value decay makes
	// the second or third stage's marginal precision not worth its time.
	res, err := g.Count(e, Options{
		Quota:    60 * time.Second,
		Mode:     Overrun,
		Strategy: &timectrl.Heuristic{Gamma: 0.05},
		Stop:     &timectrl.ValueFunction{Decay: 10 * time.Second},
		Seed:     29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.StopReason, "value function peaked") {
		t.Errorf("stop reason = %q, want value-function stop", res.StopReason)
	}
	if res.Stages < 1 {
		t.Error("no stages completed")
	}
	if res.Elapsed >= 60*time.Second {
		t.Error("value function should stop well before the quota")
	}
}

func TestFullScanCountChargesAndIsExact(t *testing.T) {
	g, e := smallSelect(t, 31, 100)
	want, _ := g.ExactCount(e)
	before := g.store.Clock().Now()
	got, err := g.FullScanCount(e)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("full scan count = %d, exact = %d", got, want)
	}
	if g.store.Clock().Now() == before {
		t.Error("full scan must charge the clock")
	}
}

func TestTraceWriter(t *testing.T) {
	g, e := smallSelect(t, 37, 100)
	var buf bytes.Buffer
	_, err := g.Count(e, Options{
		Quota:  3 * time.Second,
		Mode:   Overrun,
		Seed:   37,
		Tracer: trace.NewText(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage 1:", "predicted=", "actual=", "sel="} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestSimpleRandomSamplingPlan(t *testing.T) {
	g, e := smallSelect(t, 41, 100)
	res, err := g.Count(e, Options{
		Quota:    3 * time.Second,
		Mode:     Overrun,
		Seed:     41,
		Sampling: SimpleRandomSampling,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages < 1 {
		t.Fatal("SRS plan completed no stages")
	}
	if res.Estimate.Value <= 0 {
		t.Errorf("SRS estimate = %g", res.Estimate.Value)
	}
	if ClusterSampling.String() != "cluster" || SimpleRandomSampling.String() != "srs" {
		t.Error("sampling plan names wrong")
	}
}

func TestClusterBeatsSRSOnDisk(t *testing.T) {
	// The paper's Fig 3.2 rationale: for the same quota, cluster
	// sampling evaluates ~blockingFactor times more tuples because SRS
	// pays a whole block read per tuple.
	run := func(plan SamplingPlan) float64 {
		var total float64
		for seed := int64(1); seed <= 8; seed++ {
			g, e := smallSelect(t, seed, 100)
			res, err := g.Count(e, Options{
				Quota: 3 * time.Second, Mode: Overrun, Seed: seed, Sampling: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			// res.Blocks counts sample units: blocks (5 tuples) under
			// cluster sampling, single tuples under SRS.
			if plan == ClusterSampling {
				total += float64(res.Blocks * 5)
			} else {
				total += float64(res.Blocks)
			}
		}
		return total / 8
	}
	clusterTuples := run(ClusterSampling)
	srsTuples := run(SimpleRandomSampling)
	// The advantage is the ratio of per-tuple total costs: SRS pays a
	// full block read per tuple while cluster amortises it over the
	// blocking factor; CPU costs are paid either way, so the net ratio
	// is ~2.4x on this profile (it approaches the blocking factor only
	// when reads dominate).
	if !(clusterTuples > 1.8*srsTuples) {
		t.Errorf("cluster evaluated %.0f tuples vs SRS %.0f — expected a clear advantage",
			clusterTuples, srsTuples)
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// Empirical CI coverage of the final engine estimate across trials.
	// The paper's SRS variance approximation understates cluster
	// variance, so coverage below nominal is expected — but it should
	// remain substantial.
	covered, trials := 0, 40
	for seed := int64(1); seed <= int64(trials); seed++ {
		g, e := smallSelect(t, seed, 100)
		res, err := g.Count(e, Options{
			Quota: 4 * time.Second, Mode: Overrun, Seed: seed,
			Strategy: &timectrl.OneAtATime{DBeta: 24},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Interval.Contains(100) {
			covered++
		}
	}
	rate := float64(covered) / float64(trials)
	if rate < 0.6 {
		t.Errorf("95%% CI covered the truth in only %.0f%% of runs", rate*100)
	}
}

func TestPredictionRatioCentered(t *testing.T) {
	// Post-adaptation stage predictions should be centred: across many
	// stage-2+ records, the mean actual/predicted ratio stays near 1
	// (the load noise is mean-one and the coefficients are fitted).
	var acc stats.Accumulator
	for seed := int64(1); seed <= 30; seed++ {
		g, e := smallSelect(t, seed, 100)
		res, err := g.Count(e, Options{
			Quota: 4 * time.Second, Mode: Overrun, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.StageRecords[1:] { // skip the default-coefficient stage 1
			if r.Predicted > 0 && r.Completed {
				acc.Add(r.Actual.Seconds() / r.Predicted.Seconds())
			}
		}
	}
	if acc.N() < 20 {
		t.Fatalf("too few stage records: %d", acc.N())
	}
	// dβ=12 inflates sel⁺, so predictions skew slightly high (ratio a
	// bit under 1); gross mis-centering would flag a broken fit.
	if m := acc.Mean(); m < 0.6 || m > 1.25 {
		t.Errorf("mean actual/predicted ratio = %.3f, want near 1", m)
	}
}
