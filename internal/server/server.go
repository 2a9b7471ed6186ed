// Package server implements tcqd: the multi-tenant network front door
// of the time-constrained query engine. It accepts SQL/RA aggregate
// queries over HTTP/JSON (internal/wire), routes every request through
// a per-tenant sched.Controller admission gate — per-tenant time
// windows, typed rejections mapped to 422 / 429 + Retry-After / 503 —
// and streams progressive per-stage estimate±CI events as NDJSON or
// SSE by riding a telemetry.Stream on the query's tracer chain.
//
// The server is a composition of existing deterministic pieces
// (per-query sessions, the admission controller, the tracer chain),
// not a new execution path: under a simulated clock, equal requests
// with equal seeds produce byte-identical response streams, which is
// what the check.sh loopback smoke golden diffs.
package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tcq"
	"tcq/internal/calib"
	"tcq/internal/sched"
	"tcq/internal/telemetry"
	"tcq/internal/trace"
	"tcq/internal/wire"
)

// Config configures a Server.
type Config struct {
	// DB is the database to serve (required).
	DB *tcq.DB
	// DefaultQuota applies to requests that set no quota; default 2s.
	DefaultQuota time.Duration
	// MaxQuota bounds any request's quota and is the worst-case charge
	// for exact queries (whose duration is unknown a priori); default
	// 30s.
	MaxQuota time.Duration
	// TenantWindow is each tenant's admission budget: the worst-case
	// work a tenant may have in flight at once. The classic
	// uniprocessor test admits a request iff the tenant's committed
	// worst-case work plus the request's fits inside the window;
	// default 60s.
	TenantWindow time.Duration
	// Slack is the per-query overrun allowance folded into the
	// worst-case charge (hard deadlines can overshoot by one poll
	// granule); default 0.05.
	Slack float64
	// AdmitWait is how long an at-capacity request may block in the
	// admission gate (re-testing as committed work drains) before the
	// 429 is returned; 0 rejects immediately. The time spent is
	// attributed to the request's admission_wait span either way.
	AdmitWait time.Duration
	// SLOTarget is the per-tenant deadline-hit objective driving the
	// /slo error-budget burn gauge; default 0.99.
	SLOTarget float64
}

// Server is a tcqd instance: per-tenant admission gates over one DB,
// plus the HTTP handlers. Create with New, mount Handler (or Start),
// call Drain before shutdown.
type Server struct {
	cfg Config
	// reg holds server-side metrics (per-tenant request counters and
	// latency histograms, admission counters written by the gates),
	// merged with the DB's engine metrics on /metrics.
	reg *trace.Registry
	// slo tracks per-tenant deadline outcomes (hits, misses with span
	// attribution, infeasible rejections) for /slo and the tcq_slo_*
	// metric families.
	slo *telemetry.SLO

	mu    sync.Mutex
	gates map[string]*sched.Controller

	reqID    atomic.Int64
	draining atomic.Bool
}

// New creates a Server over cfg.DB.
func New(cfg Config) *Server {
	if cfg.DefaultQuota <= 0 {
		cfg.DefaultQuota = 2 * time.Second
	}
	if cfg.MaxQuota <= 0 {
		cfg.MaxQuota = 30 * time.Second
	}
	if cfg.TenantWindow <= 0 {
		cfg.TenantWindow = 60 * time.Second
	}
	if cfg.Slack <= 0 {
		cfg.Slack = 0.05
	}
	if cfg.SLOTarget <= 0 || cfg.SLOTarget >= 1 {
		cfg.SLOTarget = 0.99
	}
	reg := trace.NewRegistry()
	return &Server{
		cfg:   cfg,
		reg:   reg,
		slo:   telemetry.NewSLO(cfg.SLOTarget, reg),
		gates: make(map[string]*sched.Controller),
	}
}

// Registry exposes the server-side metrics registry (the load harness
// commits its latency histograms here so they render on /metrics).
func (s *Server) Registry() *trace.Registry { return s.reg }

// gate returns (creating on first use) the tenant's admission
// controller. One Controller per tenant is the per-tenant time-quota
// gate: Admit charges each request's worst case against the tenant's
// window.
func (s *Server) gate(tenant string) *sched.Controller {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gates[tenant]
	if g == nil {
		g = sched.NewController(s.cfg.DB.Store(), sched.ControllerOptions{
			Options: sched.Options{Policy: sched.QuotaQueries, Metrics: s.reg, Seed: 1},
		})
		s.gates[tenant] = g
	}
	return g
}

// Drain stops admission (healthz reports draining, new queries get
// 503) and blocks until every admitted request has released its
// reservation — i.e. every in-flight stream has finished. Pair with
// RunningServer.Shutdown, which drains the HTTP connections
// themselves.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	gates := make([]*sched.Controller, 0, len(s.gates))
	for _, g := range s.gates {
		gates = append(gates, g)
	}
	s.mu.Unlock()
	for _, g := range gates {
		g.Drain()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler builds the tcqd HTTP handler:
//
//	POST /v1/query     run one aggregate query (wire.QueryRequest);
//	                   stream=true yields NDJSON progress events
//	                   (SSE under Accept: text/event-stream)
//	GET  /v1/relations relation catalog (names + geometry)
//	GET  /healthz      liveness + drain state
//	plus every telemetry endpoint (/metrics, /queries, /history,
//	/calibration, /debug/...) over the merged DB + server registries.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/relations", s.handleRelations)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/", telemetry.Handler(serverSource{s}))
	return mux
}

// Start binds addr and serves Handler under the shared telemetry
// lifecycle: cancelling ctx drains gracefully, or manage the returned
// server with Close/Shutdown.
func (s *Server) Start(ctx context.Context, addr string) (*telemetry.RunningServer, string, error) {
	return telemetry.ServeHandler(ctx, s.Handler(), addr)
}

// handleHealth serves /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	tenants := len(s.gates)
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wire.Health{Status: status, Tenants: tenants}) //nolint:errcheck
}

// handleRelations serves /v1/relations.
func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	names := s.cfg.DB.Relations()
	sort.Strings(names)
	resp := wire.RelationsResponse{Relations: make([]wire.RelationInfo, 0, len(names))}
	for _, n := range names {
		rel, err := s.cfg.DB.Relation(n)
		if err != nil {
			continue
		}
		resp.Relations = append(resp.Relations, wire.RelationInfo{
			Name: n, Tuples: rel.NumTuples(), Blocks: rel.NumBlocks(),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// writeError sends a typed rejection/validation payload.
func writeError(w http.ResponseWriter, code int, resp wire.ErrorResponse) {
	if resp.RetryAfter > 0 {
		// Whole seconds, rounded up: a too-early retry is rejected again.
		secs := int64(math.Ceil(resp.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}

// rejectStatus maps an admission rejection to its HTTP status: 422 for
// infeasible (retry is pointless), 429 + Retry-After for at-capacity,
// 503 for a closed (draining) gate.
func rejectStatus(rej *sched.RejectionError) int {
	switch rej.Reason {
	case sched.RejectInfeasible:
		return http.StatusUnprocessableEntity
	case sched.RejectAtCapacity:
		return http.StatusTooManyRequests
	default:
		return http.StatusServiceUnavailable
	}
}

// handleQuery serves POST /v1/query. Every request gets a span
// timeline partitioning its wire-to-wire wall time (decode,
// admission_wait, plan, per-stage eval, finalize, stream_write, flush)
// and a server-assigned request id, echoed in the RequestIDHeader and
// on every terminal event; the timeline ships to the client as the
// terminal "spans" event and feeds per-tenant SLO accounting.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tl := telemetry.NewSpanTimeline()
	id := s.reqID.Add(1)
	reqID := fmt.Sprintf("req-%d", id)
	w.Header().Set(wire.RequestIDHeader, reqID)
	fail := func(code int, resp wire.ErrorResponse) {
		resp.RequestID = reqID
		writeError(w, code, resp)
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, wire.ErrorResponse{Error: "POST required", Reason: "bad-request"})
		return
	}
	if s.draining.Load() {
		fail(http.StatusServiceUnavailable, wire.ErrorResponse{Error: "server draining", Reason: sched.RejectClosed.String()})
		return
	}
	var req wire.QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		fail(http.StatusBadRequest, wire.ErrorResponse{Error: "invalid request body: " + err.Error(), Reason: "bad-request"})
		return
	}
	if (req.SQL == "") == (req.RA == "") {
		fail(http.StatusBadRequest, wire.ErrorResponse{Error: "exactly one of sql or ra required", Reason: "bad-request"})
		return
	}
	strategy, err := tcq.ParseStrategy(cmp.Or(req.Strategy, tcq.OneAtATime.String()))
	if err != nil {
		fail(http.StatusBadRequest, wire.ErrorResponse{Error: err.Error(), Reason: "bad-request"})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	quota := req.Quota
	if quota <= 0 {
		quota = s.cfg.DefaultQuota
	}
	if quota > s.cfg.MaxQuota {
		s.slo.Infeasible(tenant)
		fail(http.StatusUnprocessableEntity, wire.ErrorResponse{
			Error:  fmt.Sprintf("quota %v exceeds server maximum %v", quota, s.cfg.MaxQuota),
			Reason: sched.RejectInfeasible.String(),
		})
		return
	}
	tl.Mark(telemetry.SpanDecode, 0)

	// Admission: charge the request's worst case against the tenant's
	// window. Exact queries have no a-priori bound, so they are charged
	// the server maximum (the conservative choice the paper motivates:
	// with time-constrained queries the worst case is known, without
	// them it must be assumed).
	charge := quota
	if req.Exact {
		charge = s.cfg.MaxQuota
	}
	wcet := time.Duration(float64(charge) * (1 + s.cfg.Slack))
	release, retries, err := s.gate(tenant).AdmitWait(int(id), wcet, s.cfg.TenantWindow, s.cfg.AdmitWait)
	waited := tl.MarkRetries(telemetry.SpanAdmissionWait, 0, retries)
	tenantLabel := trace.Label{Key: "tenant", Value: tenant}
	s.reg.Observe("admission_wait_seconds", waited.Seconds(), tenantLabel)
	if err != nil {
		var rej *sched.RejectionError
		if errors.As(err, &rej) {
			s.reg.Add("server_rejects", 1, tenantLabel)
			if rej.Reason == sched.RejectInfeasible {
				s.slo.Infeasible(tenant)
			}
			fail(rejectStatus(rej), wire.ErrorResponse{
				Error: rej.Error(), Reason: rej.Reason.String(), RetryAfter: rej.RetryAfter,
			})
			return
		}
		fail(http.StatusInternalServerError, wire.ErrorResponse{Error: err.Error()})
		return
	}
	defer release()
	s.reg.Add("server_requests", 1, tenantLabel)
	defer func() {
		s.reg.Observe("request_seconds", time.Since(start).Seconds(), tenantLabel)
	}()

	ten := s.cfg.DB.Tenant(tenant)
	opts := tcq.EstimateOptions{
		Quota:          quota,
		HardDeadline:   req.HardDeadline,
		Strategy:       strategy,
		DBeta:          req.DBeta,
		TargetRelError: req.TargetRelError,
		Confidence:     req.Confidence,
		Parallelism:    req.Parallel,
		Seed:           req.Seed,
		Label:          reqID,
	}

	// Streaming: ride a telemetry.Stream on the query's tracer chain.
	// Its callback runs synchronously on this handler goroutine at each
	// stage boundary, so writing + flushing here is race-free.
	var (
		st     *streamWriter
		stream *telemetry.Stream
	)
	if req.Stream && !req.Exact {
		st = newStreamWriter(w, r, tl)
		stream = telemetry.NewStream(opts.Label, func(p tcq.QueryProgress, done bool) {
			if done {
				return // the result event carries the terminal state
			}
			st.send(wire.Event{
				Event:     "progress",
				Stage:     p.Stages,
				Estimate:  p.Estimate,
				StdErr:    p.StdErr,
				Interval:  p.Interval,
				Blocks:    p.Blocks,
				Elapsed:   p.Elapsed,
				SpentFrac: p.SpentFrac,
			})
		})
	}
	// With calibration on, keep the full trace so an SLO miss can feed
	// the flight recorder with the stage-by-stage evidence.
	var col *trace.Collector
	if !req.Exact && s.cfg.DB.CalibrationEnabled() {
		col = trace.NewCollector()
	}
	// The span tracer rides the chain first so each stage's eval span
	// closes before any stream write attributes its own time. All are
	// read-only tracers (§6.2): the response stream is byte-identical
	// with or without them; nil ones are dropped.
	opts.Tracer = trace.Combine(tl.Tracer(), stream, col)

	// Label the request's goroutine for CPU profiles: /debug/pprof
	// samples segment by tenant and query, the cross-tenant fairness
	// lens the admission windows alone cannot give.
	var (
		ev   wire.Event
		qerr error
	)
	qtext := req.SQL
	if qtext == "" {
		qtext = req.RA
	}
	pprof.Do(r.Context(), pprof.Labels("tenant", tenant, "query", truncateLabel(qtext, 64)), func(context.Context) {
		ev, qerr = s.execute(ten, req, opts)
	})
	if qerr != nil {
		if st != nil && st.started {
			st.send(wire.Event{Event: "error", Error: qerr.Error(), Reason: "query-failed", RequestID: reqID})
			st.send(spansEvent(reqID, tl))
			return
		}
		fail(http.StatusBadRequest, wire.ErrorResponse{Error: qerr.Error(), Reason: "bad-request"})
		return
	}
	if req.Exact {
		// Exact queries bypass the tracer chain; their evaluation is
		// one undifferentiated eval span.
		tl.Mark(telemetry.SpanEval, 0)
	}
	ev.RequestID = reqID

	// SLO accounting (time-constrained queries only): a miss is an
	// engine overspend or a wire-to-wire wall time past the quota; the
	// dominant span attributes it, and with calibration enabled the
	// full trace lands in the flight recorder under "slo-miss".
	if !req.Exact {
		if ev.Overspent || time.Since(start) > quota {
			dominant, _ := tl.Dominant()
			s.slo.Miss(tenant, dominant)
			if col != nil {
				s.cfg.DB.CaptureFlight(tenant+"/"+reqID, "dominant="+dominant, []string{calib.ReasonSLOMiss}, *col.Trace())
			}
		} else {
			s.slo.Hit(tenant)
		}
	}

	if st != nil {
		st.send(ev)
		st.send(spansEvent(reqID, tl))
		return
	}
	// Non-streaming responses are still NDJSON: the result event then
	// the terminal spans event, one object per line.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(ev) //nolint:errcheck
	tl.Mark(telemetry.SpanStreamWrite, 0)
	enc.Encode(spansEvent(reqID, tl)) //nolint:errcheck
}

// truncateLabel bounds a pprof label value.
func truncateLabel(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// spansEvent builds the terminal spans event from the request's
// timeline. Marks landing after the snapshot (the write of this very
// event) are not included; the coverage loss is one JSON encode.
func spansEvent(reqID string, tl *telemetry.SpanTimeline) wire.Event {
	spans := tl.Spans()
	out := make([]wire.Span, len(spans))
	for i, sp := range spans {
		out[i] = wire.Span{Name: sp.Name, Stage: sp.Stage, Start: sp.Start, Dur: sp.Dur, Retries: sp.Retries}
	}
	return wire.Event{Event: "spans", RequestID: reqID, Wall: tl.Wall(), Spans: out}
}

// execute runs the decoded query under the tenant view and builds the
// terminal result event.
func (s *Server) execute(ten *tcq.Tenant, req wire.QueryRequest, opts tcq.EstimateOptions) (wire.Event, error) {
	if req.Exact {
		if req.RA != "" {
			q, err := tcq.Parse(req.RA)
			if err != nil {
				return wire.Event{}, err
			}
			n, err := ten.DB().Count(q)
			if err != nil {
				return wire.Event{}, err
			}
			return wire.Event{Event: "result", Kind: "count", Value: float64(n), Exact: true}, nil
		}
		res, err := ten.ExecSQL(req.SQL)
		if err != nil {
			return wire.Event{}, err
		}
		ev := wire.Event{Event: "result", Kind: res.Kind, Value: res.Value, Exact: true}
		for _, g := range res.Groups {
			ev.Groups = append(ev.Groups, wire.Group{Key: g.Key, Value: g.Value})
		}
		return ev, nil
	}

	var (
		res *tcq.SQLResult
		err error
	)
	if req.RA != "" {
		var q tcq.Query
		if q, err = tcq.Parse(req.RA); err != nil {
			return wire.Event{}, err
		}
		var est *tcq.Estimate
		if est, err = ten.CountEstimate(q, opts); err != nil {
			return wire.Event{}, err
		}
		res = &tcq.SQLResult{Kind: "count", Value: est.Value, Estimate: est}
	} else if res, err = ten.EstimateSQL(req.SQL, opts); err != nil {
		return wire.Event{}, err
	}

	ev := wire.Event{Event: "result", Kind: res.Kind, Value: res.Value}
	if est := res.Estimate; est != nil {
		ev.Estimate = est.Value
		ev.StdErr = est.StdErr
		ev.Interval = est.Interval
		ev.Confidence = est.Confidence
		ev.Stages = est.Stages
		ev.Blocks = est.Blocks
		ev.Elapsed = est.Elapsed
		ev.Utilization = est.Utilization
		ev.Overspent = est.Overspent
		ev.Overrun = est.Overrun
		ev.StopReason = est.StopReason
	}
	for _, g := range res.Groups {
		ev.Groups = append(ev.Groups, wire.Group{Key: g.Key, Value: g.Value, StdErr: g.StdErr, Interval: g.Interval})
	}
	return ev, nil
}

// streamWriter frames events as NDJSON (one JSON object per line) or,
// when the client asked via Accept: text/event-stream, as SSE data
// frames; each event is flushed immediately so clients see stages as
// they complete.
type streamWriter struct {
	w       http.ResponseWriter
	flush   http.Flusher
	tl      *telemetry.SpanTimeline
	sse     bool
	started bool
}

func newStreamWriter(w http.ResponseWriter, r *http.Request, tl *telemetry.SpanTimeline) *streamWriter {
	sw := &streamWriter{w: w, tl: tl}
	sw.flush, _ = w.(http.Flusher)
	sw.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	return sw
}

func (sw *streamWriter) send(ev wire.Event) {
	if !sw.started {
		sw.started = true
		if sw.sse {
			sw.w.Header().Set("Content-Type", "text/event-stream")
			sw.w.Header().Set("Cache-Control", "no-store")
		} else {
			sw.w.Header().Set("Content-Type", "application/x-ndjson")
		}
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	if sw.sse {
		fmt.Fprintf(sw.w, "data: %s\n\n", b)
	} else {
		sw.w.Write(append(b, '\n')) //nolint:errcheck // client gone mid-stream
	}
	sw.tl.Mark(telemetry.SpanStreamWrite, 0)
	if sw.flush != nil {
		sw.flush.Flush()
		sw.tl.Mark(telemetry.SpanFlush, 0)
	}
}

// serverSource merges the DB's telemetry source with the server's own
// metrics registry, so /metrics on tcqd shows engine counters,
// admission counters and per-tenant request series in one scrape.
type serverSource struct{ s *Server }

func (ss serverSource) Metrics() trace.Snapshot {
	return mergeSnapshots(ss.s.cfg.DB.Metrics(), ss.s.reg.Snapshot())
}
func (ss serverSource) InFlight() []telemetry.QueryProgress { return ss.s.cfg.DB.InFlight() }
func (ss serverSource) History() []telemetry.QuerySummary   { return ss.s.cfg.DB.History() }
func (ss serverSource) QueryStats() []telemetry.ShapeStat   { return ss.s.cfg.DB.QueryStats() }
func (ss serverSource) Calibration() tcq.CalibrationReport  { return ss.s.cfg.DB.Calibration() }
func (ss serverSource) FlightRecords() []tcq.FlightRecord   { return ss.s.cfg.DB.FlightRecords() }
func (ss serverSource) SLO() telemetry.SLOReport            { return ss.s.slo.Report() }

// mergeSnapshots overlays b onto a (series are disjoint in practice:
// the engine registry never emits server_* series). Snapshot maps are
// never nil, so the clones are writable.
func mergeSnapshots(a, b trace.Snapshot) trace.Snapshot {
	out := trace.Snapshot{
		Counters:   maps.Clone(a.Counters),
		Gauges:     maps.Clone(a.Gauges),
		Histograms: maps.Clone(a.Histograms),
		Labeled: trace.LabeledSeries{
			Counters:   maps.Clone(a.Labeled.Counters),
			Gauges:     maps.Clone(a.Labeled.Gauges),
			Histograms: maps.Clone(a.Labeled.Histograms),
		},
	}
	for k, v := range b.Counters {
		out.Counters[k] += v
	}
	for k, v := range b.Labeled.Counters {
		out.Labeled.Counters[k] += v
	}
	maps.Copy(out.Gauges, b.Gauges)
	maps.Copy(out.Labeled.Gauges, b.Labeled.Gauges)
	maps.Copy(out.Histograms, b.Histograms)
	maps.Copy(out.Labeled.Histograms, b.Labeled.Histograms)
	return out
}
