package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tcq"
	"tcq/internal/trace"
	"tcq/internal/workload"
)

// The library workloads run tcq in-process, the way the experiment
// harness does: a simulated clock with the harness's load noise.
const (
	loadNoise = 0.12
	// simJitter is the per-charge jitter tcq.WithSimulatedClock sets;
	// the layer replay rebuilds a session clock with it.
	simJitter = 0.03
	// minOps keeps a run going past its time until a p99 has ten
	// samples beyond it; maxStretch caps that extension.
	minOps     = 1000
	maxStretch = 3
	// replayEvery picks which traced operations are also replayed
	// layer by layer.
	replayEvery = 8
)

// libShape is one query of a library workload with its exact answer,
// known from how the generator built the data.
type libShape struct {
	name  string
	ra    string
	sum   string // SUM column; empty for COUNT
	quota time.Duration
	// initJoin overrides the first-stage join selectivity when > 0.
	initJoin float64
	truth    float64
}

// libWorkload is a set-up library workload: loaded relations and the
// shapes an operation cycles through.
type libWorkload struct {
	db     *tcq.DB
	dbSeed int64
	shapes []libShape
	// parallel is EstimateOptions.Parallelism (negative = serial).
	parallel int
	gen      time.Duration
}

// setupPaperMix builds the paper's geometry: 10,000 × 200-byte tuples,
// 5 per 1 KB block, and the Fig. 5.1–5.3 shapes plus union, difference,
// projection and SUM.
func setupPaperMix(seed int64) (*libWorkload, error) {
	db := tcq.Open(tcq.WithSimulatedClock(seed), tcq.WithLoadNoise(loadNoise))
	rng := rand.New(rand.NewSource(seed))
	st := db.Store()
	n := workload.PaperTuples
	t := time.Now()
	err := firstErr(
		func() error { _, err := workload.SelectRelation(st, "sel", n, 1000, rng); return err },
		func() error { _, _, err := workload.IntersectPair(st, "i1", "i2", n, n, rng); return err },
		func() error { _, _, err := workload.JoinPair(st, "j1", "j2", n, 70000, rng); return err },
		func() error { _, _, err := workload.IntersectPair(st, "u1", "u2", n, n/2, rng); return err },
		func() error { _, err := workload.ProjectRelation(st, "p", n, 500, rng); return err },
	)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t)
	const q10, q25 = 10 * time.Second, 2500 * time.Millisecond
	return &libWorkload{
		db: db, dbSeed: seed, parallel: -1, gen: gen,
		shapes: []libShape{
			{name: "fig5.1", ra: "select(sel, a < 1000)", quota: q10, truth: 1000},
			{name: "fig5.2", ra: "intersect(i1, i2)", quota: q10, truth: float64(n)},
			{name: "fig5.3", ra: "join(j1, j2, a = a)", quota: q25, initJoin: 0.1, truth: 70000},
			{name: "union", ra: "union(u1, u2)", quota: q10, truth: float64(n + n/2)},
			{name: "diff", ra: "diff(u1, u2)", quota: q10, truth: float64(n / 2)},
			{name: "project", ra: "project(p, [a])", quota: q10, truth: 500},
			// a is a permutation of 0..n-1, so the qualifying a values
			// are exactly 0..999.
			{name: "sum", ra: "select(sel, a < 1000)", sum: "a", quota: q10, truth: 999 * 1000 / 2},
		},
	}, nil
}

// setupJoinLarge builds the perf-join-scale equijoin: two 50,000-tuple
// relations with 350,000 output tuples. The engine runs serially, as
// CPU time is measured on one P (see runLibrary).
func setupJoinLarge(seed int64) (*libWorkload, error) {
	db := tcq.Open(tcq.WithSimulatedClock(seed), tcq.WithLoadNoise(loadNoise))
	rng := rand.New(rand.NewSource(seed))
	t := time.Now()
	if _, _, err := workload.JoinPair(db.Store(), "r1", "r2", 50000, 350000, rng); err != nil {
		return nil, err
	}
	return &libWorkload{
		db: db, dbSeed: seed, parallel: -1, gen: time.Since(t),
		shapes: []libShape{
			{name: "join-large", ra: "join(r1, r2, a = a)", quota: 200 * time.Second, initJoin: 0.001, truth: 350000},
		},
	}, nil
}

func firstErr(fs ...func() error) error {
	for _, f := range fs {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func runPaperMix(cfg runConfig) (*outcome, error)  { return runLibrary(cfg, setupPaperMix) }
func runJoinLarge(cfg runConfig) (*outcome, error) { return runLibrary(cfg, setupJoinLarge) }

// runLibrary sets the workload up setupRepeats times, then runs a
// closed loop of one caller. The untraced run measures the end-to-end
// metrics, sampling the speed reference between operations; the traced run measures half its time untraced (baseline
// and allocator counts) and half traced, replaying a sample of the
// traced operations layer by layer.
func runLibrary(cfg runConfig, setup func(int64) (*libWorkload, error)) (*outcome, error) {
	o := newOutcome()
	if !cfg.trace {
		// One P while CPU time is measured: with a spare P the runtime
		// runs idle-priority GC mark workers and spins on hand-offs, and
		// how much CPU that burns depends on how much the host leaves
		// the machine.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var ref *speedRef
	if !cfg.trace {
		var err error
		if ref, err = newSpeedRef(memoryTask); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	var w *libWorkload
	var setups []cpuSample
	var gens []float64
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		ref.sample()
		c := cpuNow()
		var err error
		if w, err = setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSample{at: ref.now(), cpu: cpuNow() - c})
		gens = append(gens, w.gen.Seconds()*1e3)
	}
	ref.sample()
	o.metrics["setup_s"] = median(ref.scaleMS(setups)) / 1e3
	runtime.GC()

	if !cfg.trace {
		lr := w.loop(o, cfg.seed, 0, cfg.seconds, false, ref)
		lr.stats.reportQuality(o)
		lr.stats.reportCPU(o, ref)
		lr.heap.report(o)
		return o, nil
	}

	o.metrics["workload.gen_ms"] = median(gens)
	gc := startGC()
	plain := w.loop(o, cfg.seed, 0, cfg.seconds/2, false, nil)
	gc.report(o, plain.stats.attempted)
	reportWall(o, plain.stats.latMS)
	traced := w.loop(o, cfg.seed, int(plain.stats.attempted), cfg.seconds/2, true, nil)
	o.attempted = plain.stats.attempted + traced.stats.attempted
	o.failed = plain.stats.failed + traced.stats.failed
	p0, ok0 := percentile(plain.stats.latMS, 0.5)
	p1, ok1 := percentile(traced.stats.latMS, 0.5)
	if ok0 && ok1 {
		o.metrics["trace.overhead_pct"] = 100 * (p1/p0 - 1)
	} else {
		o.missing = append(o.missing, "trace.overhead_pct")
	}
	traced.layers.report(o)
	return o, nil
}

// loopResult is one measured region of a closed loop.
type loopResult struct {
	stats  opStats
	heap   *heapSampler
	layers *layerAcc // traced regions only
}

// loop runs operations first, first+1, ... for at least d (and at least
// minOps operations, within maxStretch × d), cycling through the
// shapes. A non-nil ref is sampled between operations.
func (w *libWorkload) loop(o *outcome, seed int64, first int, d time.Duration, traced bool, ref *speedRef) *loopResult {
	// Room for every sample up front: slices growing mid-run would move
	// the heap peak this loop reports.
	lr := &loopResult{stats: opStats{latMS: make([]float64, 0, 1<<16), cpu: make([]cpuSample, 0, 1<<16)}}
	var tr *stageTracer
	if traced {
		lr.layers = &layerAcc{}
		tr = &stageTracer{}
	}
	lr.heap = startHeapSampler()
	start := time.Now()
	for i := first; ; i++ {
		el := time.Since(start)
		if el >= d && (lr.stats.attempted >= minOps || el >= maxStretch*d) {
			break
		}
		sh := w.shapes[i%len(w.shapes)]
		qseed := opSeed(seed, i)
		opts := tcq.EstimateOptions{
			Quota:                  sh.quota,
			Seed:                   qseed,
			Parallelism:            w.parallel,
			InitialJoinSelectivity: sh.initJoin,
		}
		if traced {
			tr.reset()
			opts.Tracer = tr
		}
		lr.stats.attempted++
		c0 := cpuNow()
		t0 := time.Now()
		q, err := tcq.Parse(sh.ra)
		t1 := time.Now()
		var est *tcq.Estimate
		if err == nil {
			if sh.sum != "" {
				est, err = w.db.SumEstimate(q, sh.sum, opts)
			} else {
				est, err = w.db.CountEstimate(q, opts)
			}
		}
		t2 := time.Now()
		lr.stats.latMS = append(lr.stats.latMS, float64(t2.Sub(t0))/1e6)
		lr.stats.cpu = append(lr.stats.cpu, cpuSample{at: ref.now(), cpu: cpuNow() - c0})
		ref.tick()
		if err != nil {
			lr.stats.failed++
			o.mismatch("%s seed %d: %v", sh.name, qseed, err)
			continue
		}
		lr.stats.answer(o, sh.name, est.Value, est.Interval, sh.truth, est.Stages, est.Overspent)
		if traced {
			lr.layers.observe(tr, t1.Sub(t0), t2.Sub(t1))
			if i%replayEvery == 0 {
				lr.layers.replay(w, sh, qseed, tr.recs, est)
			}
		}
	}
	lr.heap.Stop()
	return lr
}

// stageTracer is the benchmark's trace.Tracer: it stamps each engine
// callback with host time and keeps the stage records in memory.
type stageTracer struct {
	begin time.Time
	at    []time.Time
	recs  []trace.StageRecord
}

func (t *stageTracer) reset() {
	t.at = t.at[:0]
	t.recs = t.recs[:0]
}

func (t *stageTracer) Enabled() bool              { return true }
func (t *stageTracer) BeginQuery(trace.QueryInfo) { t.begin = time.Now() }
func (t *stageTracer) EndQuery(trace.QueryEnd)    {}
func (t *stageTracer) StageDone(r trace.StageRecord) {
	t.at = append(t.at, time.Now())
	t.recs = append(t.recs, r)
}
