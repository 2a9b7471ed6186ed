package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tcq"
	"tcq/internal/client"
	"tcq/internal/server"
	"tcq/internal/wire"
	"tcq/internal/workload"
)

const (
	// nominalRPS is the serve-mix open-loop rate: the heap and the
	// traced run's latency and spans are measured at it. It is about a
	// fifth of the one-client closed-loop rate on one P (740–1,140
	// requests/s on a 2-vCPU virtual machine, see README.md), so the
	// open loop loads the stack lightly and does not measure queueing.
	nominalRPS = 150
	// limitMS is the latency limit behind loadgen.max_rps: at most 1% of
	// a step's requests, timed from their due time, may exceed it.
	limitMS = 20
	// The capacity search grows the rate from baseRPS by coarseFactor
	// per step until a step fails, then bisects the last interval
	// bisections times. A step lasts stepTime and sends at least
	// stepReqs requests, so the 1% it may lose is at least two.
	baseRPS      = 50
	coarseFactor = 1.5
	bisections   = 3
	stepTime     = time.Second
	stepReqs     = 200
	// twinChecks bounds how many catalog-bypassing results are checked
	// against an in-process twin.
	twinChecks = 64
)

// streamed reports whether request i asks for a streamed response:
// requests alternate in runs of one request per shape.
func streamed(i int) bool { return (i/len(serveShapes))%2 == 0 }

// twinPick reports whether request i belongs to the twin-check sample:
// two consecutive runs in every eight, one streamed and one plain.
func twinPick(i int) bool { return (i/len(serveShapes))%8 < 2 }

// serveShape is one request shape of serve-mix. warm shapes read only
// relations the catalog was built for, so their repeats take the warm
// path; the others always miss it.
type serveShape struct {
	name    string
	ra, sql string
	quota   time.Duration
	truth   float64
	warm    bool
}

var serveShapes = []serveShape{
	{name: "select", ra: "select(r, a < 1000)", quota: 10 * time.Second, truth: 1000, warm: true},
	{name: "sum-sql", sql: "SELECT SUM(a) FROM r WHERE a < 1000", quota: 10 * time.Second, truth: 999 * 1000 / 2, warm: true},
	{name: "intersect", ra: "intersect(i1, i2)", quota: 10 * time.Second, truth: workload.PaperTuples / 2, warm: true},
	{name: "join", ra: "join(j1, j2, a = a)", quota: 10 * time.Second, truth: 70000},
	{name: "distinct-sql", sql: "SELECT COUNT(DISTINCT a) FROM p", quota: 10 * time.Second, truth: 500},
	// p's a values are i mod 500, 20 tuples each.
	{name: "select-sql", sql: "SELECT COUNT(*) FROM p WHERE a < 100", quota: 2500 * time.Millisecond, truth: 2000},
}

// catalogRelations are the relations the catalog is built for.
var catalogRelations = []string{"r", "i1", "i2"}

// generateServe loads serve-mix's paper-size relations.
func generateServe(db *tcq.DB, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	st := db.Store()
	n := workload.PaperTuples
	return firstErr(
		func() error { _, err := workload.SelectRelation(st, "r", n, 1000, rng); return err },
		func() error { _, _, err := workload.IntersectPair(st, "i1", "i2", n, n/2, rng); return err },
		func() error { _, _, err := workload.JoinPair(st, "j1", "j2", n, 70000, rng); return err },
		func() error { _, err := workload.ProjectRelation(st, "p", n, 500, rng); return err },
	)
}

// serveEnv is a running serve-mix server.
type serveEnv struct {
	db       *tcq.DB
	srv      *server.Server
	stopHTTP func(context.Context) error
	addr     string
	gen      time.Duration
	build    time.Duration
}

// startServe sets serve-mix up as cmd/tcqd sets a server up.
func startServe(seed int64) (*serveEnv, error) {
	db := tcq.Open(tcq.WithSimulatedClock(seed), tcq.WithLoadNoise(loadNoise),
		tcq.WithTelemetry(64), tcq.WithCalibration(64), tcq.WithCatalog())
	e := &serveEnv{db: db}
	t := time.Now()
	if err := generateServe(db, seed); err != nil {
		return nil, err
	}
	e.gen = time.Since(t)
	t = time.Now()
	if err := db.BuildCatalog(catalogRelations...); err != nil {
		return nil, err
	}
	e.build = time.Since(t)
	e.srv = server.New(server.Config{
		DB:           db,
		DefaultQuota: 2 * time.Second,
		MaxQuota:     30 * time.Second,
		TenantWindow: 60 * time.Second,
		Slack:        0.05,
		SLOTarget:    0.99,
	})
	rs, addr, err := e.srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.stopHTTP, e.addr = rs.Shutdown, addr
	return e, nil
}

// stop drains admission, then the connections, and waits for both.
func (e *serveEnv) stop() error {
	e.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return e.stopHTTP(ctx)
}

// request builds request i of the run: shapes round-robin over two
// tenants, alternating streaming and non-streaming responses.
func request(seed int64, i int) (serveShape, wire.QueryRequest) {
	sh := serveShapes[i%len(serveShapes)]
	return sh, wire.QueryRequest{
		Tenant: fmt.Sprintf("t%d", i%2),
		RA:     sh.ra,
		SQL:    sh.sql,
		Quota:  sh.quota,
		Seed:   opSeed(seed, i),
		Stream: streamed(i),
	}
}

// sent is one open-loop request's outcome.
type sent struct {
	i       int
	lag     time.Duration // how late the send left
	latency time.Duration // from due time to terminal event
	client  time.Duration // from send to terminal event
	cpu     cpuSample     // process CPU time (closed loop only)
	ev      *wire.Event
	err     error
}

// step is one fixed-rate open-loop phase.
type step struct {
	rate    float64
	reqs    []sent
	backlog int64 // requests outstanding when the last one was due
}

// openLoop sends requests first, first+1, ... at a fixed rate for d,
// whatever the replies do, and waits for every reply.
func openLoop(cl *client.Client, seed int64, first int, rate float64, d time.Duration) *step {
	n := max(int(rate*d.Seconds()), 1)
	st := &step{rate: rate, reqs: make([]sent, n)}
	interval := time.Duration(float64(time.Second) / rate)
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		r := &st.reqs[k]
		r.i = first + k
		r.lag = time.Since(due)
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			_, req := request(seed, r.i)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			t := time.Now()
			r.ev, r.err = cl.Query(ctx, req, nil)
			end := time.Now()
			r.latency, r.client = end.Sub(due), end.Sub(t)
		}()
	}
	st.backlog = outstanding.Load()
	wg.Wait()
	return st
}

// latMS is the step's latencies in ms; a failed request counts as
// missing every limit.
func (s *step) latMS() []float64 {
	out := make([]float64, len(s.reqs))
	for i, r := range s.reqs {
		out[i] = math.Inf(1)
		if r.err == nil {
			out[i] = float64(r.latency) / 1e6
		}
	}
	return out
}

// meets reports whether at most 1% of the step's requests exceeded
// limitMS and the backlog stayed within what the limit allows.
func (s *step) meets() bool {
	over := 0
	for _, l := range s.latMS() {
		if l > limitMS {
			over++
		}
	}
	return over*100 <= len(s.reqs) && float64(s.backlog) <= s.rate*limitMS/1e3+1
}

// maxRate finds the highest rate meeting the limit: coarse steps up
// from baseRPS to the first failure, then bisection. It is 0 when not
// even baseRPS meets the limit.
func maxRate(cl *client.Client, seed int64, next *int, onStep func(*step)) float64 {
	run := func(rate float64) bool {
		d := max(stepTime, time.Duration(stepReqs/rate*float64(time.Second)))
		s := openLoop(cl, seed, *next, rate, d)
		*next += len(s.reqs)
		onStep(s)
		return s.meets()
	}
	if !run(baseRPS) {
		return 0
	}
	lo, hi := float64(baseRPS), baseRPS*coarseFactor
	for run(hi) {
		lo, hi = hi, hi*coarseFactor
	}
	for b := 0; b < bisections; b++ {
		mid := math.Sqrt(lo * hi)
		if run(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func newLoadClient(addr string) *client.Client {
	cl := client.New(addr, "")
	procs := runtime.GOMAXPROCS(0)
	cl.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
	return cl
}

// runServeMix sets the server up setupRepeats times and warms it. The
// untraced run then measures each request's CPU cost in a one-client
// closed loop for four fifths of its time (requests never overlap, so
// the process's CPU time per request is the whole stack's), scaled to
// the reference speed, and the heap in an open loop at nominalRPS for
// the last fifth. The traced run records latency and spans in an open loop
// at nominalRPS, then searches the highest rate meeting the latency
// limit.
func runServeMix(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	// One P while CPU time is measured (set-up and the closed loop), as
	// in runLibrary; the open loops run on every P.
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	if !cfg.trace {
		runtime.GOMAXPROCS(1)
	}
	var ref *speedRef
	if !cfg.trace {
		var err error
		if ref, err = newSpeedRef(loopbackTask); err != nil {
			return nil, err
		}
		defer ref.close()
	}
	var e *serveEnv
	var setups []cpuSample
	var gens, builds []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, fmt.Errorf("stop: %w", err)
			}
			e = nil
		}
		runtime.GC()
		ref.sample()
		c := cpuNow()
		var err error
		if e, err = startServe(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, cpuSample{at: ref.now(), cpu: cpuNow() - c})
		gens = append(gens, e.gen.Seconds()*1e3)
		builds = append(builds, e.build.Seconds()*1e3)
	}
	ref.sample()
	o.metrics["setup_s"] = median(ref.scaleMS(setups)) / 1e3
	runtime.GOMAXPROCS(procs)
	cl := newLoadClient(e.addr)
	defer cl.HTTP.CloseIdleConnections()

	// Warm-up: connections open, and each warm shape's first run plants
	// the catalog hint its repeats hit.
	next := 0
	next += len(openLoop(cl, cfg.seed, next, nominalRPS, 500*time.Millisecond).reqs)

	acc := &serveAcc{o: o, seed: cfg.seed}
	run := func(s *step) *step {
		next += len(s.reqs)
		acc.fold(s)
		return s
	}
	if !cfg.trace {
		runtime.GOMAXPROCS(1)
		closed := run(closedLoop(cl, cfg.seed, next, cfg.seconds*4/5, ref))
		runtime.GOMAXPROCS(procs)
		var cpu opStats
		for _, r := range closed.reqs {
			cpu.cpu = append(cpu.cpu, r.cpu)
		}
		cpu.reportCPU(o, ref)
		// The closed loop's requests are garbage now, but the collector's
		// goal still counts them: collect them, so the open loop's heap is
		// the program's alone.
		runtime.GC()
		heap := startHeapSampler()
		run(openLoop(cl, cfg.seed, next, nominalRPS, cfg.seconds/5))
		heap.Stop()
		heap.report(o)
	} else {
		o.metrics["workload.gen_ms"] = median(gens)
		o.metrics["catalog.build_ms"] = median(builds)
		// tcqd records the span anatomy of every request, and the
		// benchmark reads it only after a step has ended, so there is no
		// untraced serve path to compare against.
		o.metrics["trace.overhead_pct"] = 0
		acc.spans = &spanAcc{}
		gc := startGC()
		nominal := run(openLoop(cl, cfg.seed, next, nominalRPS, cfg.seconds/2))
		gc.report(o, int64(len(nominal.reqs)))
		reportWall(o, nominal.latMS())
		o.metrics["loadgen.max_rps"] = maxRate(cl, cfg.seed, &next, acc.fold)
		acc.spans.report(o)
		m := e.db.Metrics().Counters
		o.metrics["catalog.hit_share"] = share(m["catalog_hits"], m["catalog_lookups"])
		o.metrics["catalog.warm_ci_coverage"] = acc.hot.coverage()
		o.metrics["catalog.warm_deadline_met_share"] = acc.hot.deadlineMet()
	}
	if err := e.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	acc.cold.addCounts(acc.hot)
	acc.cold.reportQuality(o)
	return o, twinCheck(o, cfg.seed, acc.twin)
}

// serveAcc folds each finished phase in, so the benchmark holds no more
// than the running phase's requests and the heap it samples is the
// program's.
type serveAcc struct {
	o    *outcome
	seed int64
	// Warm answers reuse one catalog sample per relation for the whole
	// run, so their interval misses and overruns are one draw per shape,
	// not per request: coverage, width and deadline are scored on cold
	// answers (cold), and the warm ones (hot) are catalog-layer metrics.
	cold, hot opStats
	// twin samples answered catalog-bypassing requests for twinCheck.
	twin  []sent
	spans *spanAcc // traced phases only
}

func (a *serveAcc) fold(s *step) {
	for _, r := range s.reqs {
		sh, _ := request(a.seed, r.i)
		if sh.warm {
			scoreSent(a.o, &a.hot, r)
			continue
		}
		scoreSent(a.o, &a.cold, r)
		if r.err == nil && len(a.twin) < twinChecks && twinPick(r.i) {
			ev := *r.ev
			ev.Spans = nil
			r.ev = &ev
			a.twin = append(a.twin, r)
		}
	}
	if a.spans != nil {
		a.spans.add(s)
	}
}

// closedLoop sends requests first, first+1, ... one at a time for d
// (and at least minOps), timing each one's process CPU time and
// sampling ref between requests.
func closedLoop(cl *client.Client, seed int64, first int, d time.Duration, ref *speedRef) *step {
	st := &step{}
	start := time.Now()
	for k := 0; ; k++ {
		el := time.Since(start)
		if el >= d && (len(st.reqs) >= minOps || el >= maxStretch*d) {
			break
		}
		r := sent{i: first + k}
		_, req := request(seed, r.i)
		c0 := cpuNow()
		t := time.Now()
		r.ev, r.err = cl.Query(context.Background(), req, nil)
		r.client = time.Since(t)
		r.cpu = cpuSample{at: ref.now(), cpu: cpuNow() - c0}
		st.reqs = append(st.reqs, r)
		ref.tick()
	}
	return st
}

// scoreSent scores one request. A refusal, an error event or a stream
// that ends without a result is a failed operation.
func scoreSent(o *outcome, s *opStats, r sent) {
	s.attempted++
	if r.err != nil {
		s.failed++
		return
	}
	sh, _ := request(0, r.i)
	overran := r.ev.Overspent || r.client > sh.quota
	s.answer(o, sh.name, r.ev.Estimate, r.ev.Interval, sh.truth, r.ev.Stages, overran)
}

// twinCheck re-runs the sampled catalog-bypassing requests in-process
// on a twin database generated from the same seed: each served answer
// must match the twin's bit for bit.
func twinCheck(o *outcome, seed int64, sample []sent) error {
	var kinds [2]int
	for _, r := range sample {
		if streamed(r.i) {
			kinds[0]++
		} else {
			kinds[1]++
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 {
		return fmt.Errorf("twin: sample holds %d streamed and %d plain catalog-bypassing results, need both", kinds[0], kinds[1])
	}
	twin := tcq.Open(tcq.WithSimulatedClock(seed), tcq.WithLoadNoise(loadNoise))
	if err := generateServe(twin, seed); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	for _, r := range sample {
		sh, req := request(seed, r.i)
		opts := tcq.EstimateOptions{Quota: req.Quota, Seed: req.Seed}
		var est *tcq.Estimate
		var err error
		if sh.ra != "" {
			var q tcq.Query
			if q, err = tcq.Parse(sh.ra); err == nil {
				est, err = twin.CountEstimate(q, opts)
			}
		} else {
			var res *tcq.SQLResult
			if res, err = twin.EstimateSQL(sh.sql, opts); err == nil {
				est = res.Estimate
			}
		}
		if err != nil {
			return fmt.Errorf("twin %s: %w", sh.name, err)
		}
		ev := r.ev
		if math.Float64bits(ev.Estimate) != math.Float64bits(est.Value) ||
			math.Float64bits(ev.Interval) != math.Float64bits(est.Interval) || ev.Stages != est.Stages {
			o.mismatch("%s request %d: served %v ± %v (%d stages), twin %v ± %v (%d stages)",
				sh.name, r.i, ev.Estimate, ev.Interval, ev.Stages, est.Value, est.Interval, est.Stages)
		}
	}
	return nil
}

// spanAcc gathers the server's per-request span anatomy and the
// client-side remainder.
type spanAcc struct {
	spans        map[string][]float64
	wall, unattr []float64
	admit        []float64
	retries      int64
	lagMS        []float64
	n            int64
}

var spanNames = []string{"decode", "plan", "eval", "finalize", "stream_write", "flush"}

func (a *spanAcc) add(s *step) {
	if a.spans == nil {
		a.spans = map[string][]float64{}
	}
	for _, r := range s.reqs {
		a.lagMS = append(a.lagMS, float64(r.lag)/1e6)
		if r.err != nil {
			continue
		}
		a.n++
		per := map[string]time.Duration{}
		for _, sp := range r.ev.Spans {
			per[sp.Name] += sp.Dur
			if sp.Name == "admission_wait" {
				a.admit = append(a.admit, us(sp.Dur))
				a.retries += int64(sp.Retries)
			}
		}
		for _, name := range spanNames {
			if d, ok := per[name]; ok {
				a.spans[name] = append(a.spans[name], us(d))
			}
		}
		a.wall = append(a.wall, us(r.ev.Wall))
		a.unattr = append(a.unattr, us(r.client-r.ev.Wall))
	}
}

func (a *spanAcc) report(o *outcome) {
	for _, name := range spanNames {
		o.pct("server."+name+"_us_p50", a.spans[name], 0.50, 1)
		o.pct("server."+name+"_us_p95", a.spans[name], 0.95, 1)
	}
	o.pct("server.wall_us_p50", a.wall, 0.50, 1)
	o.pct("server.wall_us_p95", a.wall, 0.95, 1)
	o.pct("client.unattributed_us_p50", a.unattr, 0.50, 1)
	o.pct("client.unattributed_us_p95", a.unattr, 0.95, 1)
	o.pct("sched.admission_wait_us_p50", a.admit, 0.50, 1)
	o.pct("sched.admission_wait_us_p99", a.admit, 0.99, 1)
	o.metrics["sched.retries_per_req"] = float64(a.retries) / math.Max(float64(a.n), 1)
	o.pct("loadgen.lag_ms_p99", a.lagMS, 0.99, 1)
}
