package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"tcq"
	"tcq/internal/cost"
	"tcq/internal/estimator"
	"tcq/internal/exec"
	"tcq/internal/raparse"
	"tcq/internal/sampling"
	"tcq/internal/timectrl"
	"tcq/internal/trace"
	"tcq/internal/vclock"
)

// layerAcc accumulates the traced region's per-layer view: host stage
// times and stage records from the engine's tracer, plus the layer
// split of the replayed operations.
type layerAcc struct {
	ops       int64
	parseUS   []float64
	stageUS   []float64
	outsideUS []float64
	stages    int64
	iters     int64
	overshoot []float64
	blocks    int64
	charges   trace.Charges

	replayed, mismatched int64
	split                layerTimes
}

// observe folds in one traced operation: its parse and estimate call
// times and the tracer's timestamps and records.
func (a *layerAcc) observe(tr *stageTracer, parse, call time.Duration) {
	a.ops++
	a.parseUS = append(a.parseUS, us(parse))
	prev := tr.begin
	for i, at := range tr.at {
		a.stageUS = append(a.stageUS, us(at.Sub(prev)))
		prev = at
		r := tr.recs[i]
		a.stages++
		a.iters += int64(r.SearchIters)
		a.overshoot = append(a.overshoot, math.Abs(r.Overshoot))
		a.blocks += int64(r.Blocks)
		c := r.Charges
		a.charges.Comparisons += c.Comparisons
		a.charges.TuplesRead += c.TuplesRead
		a.charges.TempBytes += c.TempBytes
	}
	a.outsideUS = append(a.outsideUS, us(call-prev.Sub(tr.begin)))
}

// replay re-drives one traced operation through the layers and folds
// its split in when the replay reproduces the engine's answer bit for
// bit; otherwise it counts a mismatch and drops the split.
func (a *layerAcc) replay(w *libWorkload, sh libShape, seed int64, recs []trace.StageRecord, est *tcq.Estimate) {
	a.replayed++
	r, err := replayEstimate(w, sh, seed, recs)
	if err == nil && !sameAnswer(r, est) {
		err = fmt.Errorf("replay %v ± %v (%d stages), engine %v ± %v (%d stages)",
			r.value, r.half, r.stages, est.Value, est.Interval, est.Stages)
	}
	if err != nil {
		a.mismatched++
		fmt.Fprintf(os.Stderr, "perfbench: replay mismatch on %s seed %d: %v\n", sh.name, seed, err)
		return
	}
	a.split.add(r.times)
}

func sameAnswer(r replayResult, est *tcq.Estimate) bool {
	return math.Float64bits(r.value) == math.Float64bits(est.Value) &&
		math.Float64bits(r.half) == math.Float64bits(est.Interval) &&
		r.stages == est.Stages
}

// report writes the per-layer metrics of the traced region.
func (a *layerAcc) report(o *outcome) {
	o.metrics["tcq.parse_us"] = mean(a.parseUS)
	o.pct("core.stage_us_p50", a.stageUS, 0.50, 1)
	o.pct("core.stage_us_p95", a.stageUS, 0.95, 1)
	o.pct("core.outside_stages_us", a.outsideUS, 0.50, 1)
	o.pct("timectrl.overshoot_p50", a.overshoot, 0.50, 1)
	ops := float64(a.ops)
	stages := float64(a.stages)
	o.metrics["core.stages_per_op"] = stages / ops
	o.metrics["timectrl.search_iters_per_stage"] = float64(a.iters) / stages
	o.metrics["sampling.blocks_per_op"] = float64(a.blocks) / ops
	o.metrics["exec.comparisons_per_op"] = float64(a.charges.Comparisons) / ops
	o.metrics["exec.tuples_read_per_op"] = float64(a.charges.TuplesRead) / ops
	o.metrics["exec.temp_bytes_per_op"] = float64(a.charges.TempBytes) / ops
	o.metrics["replay.queries"] = float64(a.replayed)
	o.metrics["replay.mismatches"] = float64(a.mismatched)
	t := a.split
	if t.stages == 0 {
		return
	}
	n := float64(t.stages)
	o.metrics["timectrl.plan_us_per_stage"] = us(t.plan) / n
	o.metrics["sampling.draw_us_per_stage"] = us(t.draw) / n
	o.metrics["exec.load_stage_us"] = us(t.load) / n
	o.metrics["exec.advance_stage_us"] = us(t.advance) / n
	o.metrics["estimator.estimate_us_per_stage"] = us(t.estimate) / n
	o.metrics["cost.observe_us_per_stage"] = us(t.observe) / n
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerTimes is host time spent in each layer's exported call.
type layerTimes struct {
	stages                                       int64
	plan, draw, load, advance, estimate, observe time.Duration
}

func (t *layerTimes) add(u layerTimes) {
	t.stages += u.stages
	t.plan += u.plan
	t.draw += u.draw
	t.load += u.load
	t.advance += u.advance
	t.estimate += u.estimate
	t.observe += u.observe
}

// sessionSeed is the simulated-clock seed tcq gives an estimate's
// session: the DB seed and the query seed combined.
func sessionSeed(dbSeed, querySeed int64) int64 { return dbSeed*1_000_003 + querySeed }

type replayResult struct {
	value, half float64
	stages      int
	times       layerTimes
}

// replayEstimate repeats the engine's stage loop (the paper's Fig. 3.1
// as core.Engine.Count runs it for these options: overrun mode, cluster
// sampling, full fulfillment, One-at-a-Time with d_β = 12, no catalog,
// no stopping criterion) through the layers' exported calls, timing
// each: Strategy.PlanStage, RelationSample.Draw, Feed.LoadStage,
// Query.AdvanceStage, Query.Estimate and Model.Observe. The session is
// rebuilt exactly as tcq builds it, so the simulated clock replays the
// same charges; every planned fraction must match the recorded one.
func replayEstimate(w *libWorkload, sh libShape, seed int64, recs []trace.StageRecord) (replayResult, error) {
	var r replayResult
	e, err := raparse.Parse(sh.ra)
	if err != nil {
		return r, err
	}
	sim := vclock.NewSim(sessionSeed(w.dbSeed, seed), simJitter)
	sim.SetLoadSigma(loadNoise)
	sess := w.db.Store().Session(sim)
	workers := w.parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	env := exec.NewEnv(sess)
	q, err := exec.NewTieredParallelQuery(e, env, exec.StoreCatalog{Store: sess}, exec.FullFulfillment, workers, workers)
	if err != nil {
		return r, err
	}
	aggregate := q.Estimate
	if sh.sum != "" {
		if err := q.SetAggregate(sh.sum); err != nil {
			return r, err
		}
		aggregate = q.SumEstimate
	}
	names := q.FeedNames()
	rng := rand.New(rand.NewSource(seed))
	samplers := make([]*sampling.RelationSample, len(names))
	maxBlocks := 0
	for i, name := range names {
		rel := q.Feeds[name].Rel
		samplers[i] = sampling.NewRelationSample(name, rel.NumBlocks(), rel.NumTuples(), rng)
		if b := rel.NumBlocks(); b > maxBlocks {
			maxBlocks = b
		}
	}
	model := cost.NewModel(cost.DefaultCoefficients(sess.Costs(), q.Feeds[names[0]].Rel.BlockingFactor()), true)
	strategy := &timectrl.OneAtATime{DBeta: 12, MinFraction: 1 / float64(maxBlocks)}
	initial := timectrl.DefaultInitials()
	if sh.initJoin > 0 {
		initial.Join = sh.initJoin
	}

	var last estimator.Estimate
	start := sim.Now()
	for stage := 1; stage <= 1000; stage++ {
		sim.ResampleLoad()
		remaining := sh.quota - (sim.Now() - start)
		if remaining <= 0 {
			break
		}
		t := time.Now()
		var roots []*exec.NodeInfo
		for _, te := range q.Terms {
			roots = append(roots, exec.Snapshot(te.Root))
		}
		maxFraction, covered := 1.0, 1.0
		for _, s := range samplers {
			maxFraction = math.Min(maxFraction, float64(s.Remaining())/float64(s.DTotal))
			covered = math.Min(covered, s.Fraction())
		}
		if maxFraction <= 0 {
			break
		}
		plan := strategy.PlanStage(timectrl.PlanInput{
			Roots: roots, Model: model, Remaining: remaining, Stage: stage,
			CoveredFrac: covered, MaxFraction: maxFraction, Initial: initial,
		})
		if plan.Fraction <= 0 && stage > 1 {
			break
		}
		if plan.Fraction <= 0 {
			plan.Fraction = strategy.MinFraction
		}
		r.times.plan += time.Since(t)
		if stage > len(recs) {
			return r, fmt.Errorf("stage %d planned, the engine ran %d", stage, len(recs))
		}
		if f := recs[stage-1].Fraction; f != plan.Fraction {
			return r, fmt.Errorf("stage %d planned fraction %v, the engine %v", stage, plan.Fraction, f)
		}

		stageStart := sim.Now()
		for i, name := range names {
			f, s := q.Feeds[name], samplers[i]
			k := max(int(math.Round(plan.Fraction*float64(s.DTotal))), 1)
			t = time.Now()
			blocks := s.Draw(k)
			r.times.draw += time.Since(t)
			if len(blocks) == 0 {
				continue
			}
			t = time.Now()
			err := f.LoadStage(blocks)
			r.times.load += time.Since(t)
			if err != nil {
				return r, err
			}
			t = time.Now()
			err = s.SetStageTuples(len(s.Stages)-1, f.StageLen(f.Stages()-1))
			r.times.draw += time.Since(t)
			if err != nil {
				return r, err
			}
		}
		t = time.Now()
		for _, name := range names {
			f := q.Feeds[name]
			for f.Stages() < stage {
				if err := f.LoadStage(nil); err != nil {
					return r, err
				}
			}
		}
		r.times.load += time.Since(t)
		t = time.Now()
		err := q.AdvanceStage(stage - 1)
		r.times.advance += time.Since(t)
		if err != nil {
			return r, err
		}
		stageEnd := sim.Now()

		t = time.Now()
		model.Observe(env.TakeTimings())
		r.times.observe += time.Since(t)
		strategy.ObserveStage(plan.Predicted, stageEnd-stageStart)
		t = time.Now()
		est := aggregate()
		r.times.estimate += time.Since(t)
		r.times.stages++
		if stageEnd-start > sh.quota {
			break
		}
		last = est
		r.stages = stage
	}
	r.value = last.Value
	r.half = last.Interval(0.95).Half
	return r, nil
}
