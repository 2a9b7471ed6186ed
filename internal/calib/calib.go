// Package calib is the calibration observatory of the time-constrained
// query engine: it audits whether the statistical promises the paper
// makes actually hold on the running system.
//
// Three concerns live here, all fed through the trace.Tracer interface
// (a Probe returned by Auditor.Track is combined into the engine's
// tracer chain, inheriting the tracing layer's read-only contract — no
// session-clock charges, no RNG draws, byte-identical estimates and
// goldens with calibration on or off):
//
//   - Empirical CI coverage. For queries whose ground truth is known
//     (full-scan counts on benchmark relations, recorded goldens), the
//     auditor records hit/miss of the nominal confidence interval per
//     query shape and reports realized coverage with a Wilson score
//     interval on the coverage estimate itself, so "95%" is a measured
//     number with its own error bar rather than an assumption.
//
//   - Cost-model drift. Every predicted stage contributes an
//     actual/predicted QCOST ratio to per-shape and per-operator
//     log2-bucketed histograms, with each stage's overshoot attributed
//     to the dominant operator (largest stage output) that drove it.
//
//   - Flight recorder. Anomalous queries — a hard-deadline abort, an
//     overspend past a threshold fraction of the quota, or a CI that
//     missed known ground truth — have their full trace.QueryTrace
//     captured into a bounded overwrite-oldest ring for post-hoc
//     debugging (exposed at /debug/flightrecorder and tcqsh \flightrec).
//
// All aggregates are deterministic functions of the observed traces, so
// replaying a fixed set of traces in a fixed order yields a
// byte-identical rendered report (the tcqbench -calib golden).
package calib

import (
	"math"
	"sync"
	"time"

	"tcq/internal/trace"
)

// Truth carries a query's known ground-truth aggregate value and the
// nominal confidence level of the interval being audited.
type Truth struct {
	// Value is the exact aggregate (e.g. the full-scan COUNT).
	Value float64 `json:"value"`
	// Level is the nominal CI level the query ran with (0.95 when 0).
	Level float64 `json:"level,omitempty"`
}

// Config configures an Auditor.
type Config struct {
	// FlightSize is the flight recorder capacity (64 when <= 0).
	FlightSize int
	// OverspendFrac is the overspend capture threshold as a fraction of
	// the quota (0.05 when 0; negative disables overspend capture).
	OverspendFrac float64
	// Metrics, when non-nil, receives calibration_* counters and
	// histograms (rendered as tcq_calibration_* on /metrics).
	Metrics *trace.Registry
}

// Flight-capture reasons.
const (
	ReasonCIMiss        = "ci-miss"
	ReasonDegenerateCI  = "degenerate-ci"
	ReasonDeadlineAbort = "deadline-abort"
	ReasonOverspend     = "overspend"
	// ReasonSLOMiss marks traces captured externally by the serving
	// layer when a request missed its wire-to-wire deadline (see
	// Auditor.Capture); the record's Note carries the attribution.
	ReasonSLOMiss = "slo-miss"
)

// FlightRecord is one captured anomalous query: the full trace plus why
// it was captured.
type FlightRecord struct {
	// Seq is the auditor-assigned monotonic capture number.
	Seq int64 `json:"seq"`
	// Label is the caller-supplied origin tag (bench trial id, etc.).
	Label string `json:"label,omitempty"`
	// Reasons lists the capture triggers that fired (see Reason*).
	Reasons []string `json:"reasons"`
	// Note carries free-form capture context from external captures,
	// e.g. the dominant span of an SLO miss ("dominant=admission_wait").
	Note string `json:"note,omitempty"`
	// Truth is the known ground truth, when the query had one.
	Truth *Truth `json:"truth,omitempty"`
	// Trace is the query's full stage-by-stage trace.
	Trace trace.QueryTrace `json:"trace"`
}

// shapeCal accumulates one query shape's calibration state.
type shapeCal struct {
	queries    int64
	truthN     int64
	truthHits  int64
	truthDegen int64
	levelSum   float64 // nominal level sum over usable truth-checked runs
	driftN     int64
	driftSum   float64 // sum of actual/predicted ratios
	buckets    map[int]int64
	worst      float64 // worst (max) stage overshoot seen
	worstStage int
	overspends int64
	aborts     int64
}

// Drift ratios (actual/predicted) land in log2 buckets clamped to
// [driftLo, driftHi], so pathological ratios stay in the end buckets.
const driftLo, driftHi = -6, 6

// opCal accumulates one operator kind's drift attribution.
type opCal struct {
	stages       int64 // predicted stages where this op dominated
	driftSum     float64
	buckets      map[int]int64
	overshootSum float64 // sum of positive attributed overshoots
	worst        float64
}

// Auditor accumulates calibration evidence across queries. It is safe
// for concurrent use; a nil Auditor is a valid disabled instance (Track
// returns a nil Probe, snapshots are empty).
type Auditor struct {
	mu     sync.Mutex
	cfg    Config
	shapes map[string]*shapeCal
	ops    map[string]*opCal

	queries    int64
	truthN     int64
	truthHits  int64
	truthDegen int64
	reasons    map[string]int64

	flight   []FlightRecord
	next     int
	held     int
	captured int64
	seq      int64
}

// NewAuditor creates an auditor with the given configuration.
func NewAuditor(cfg Config) *Auditor {
	if cfg.FlightSize <= 0 {
		cfg.FlightSize = 64
	}
	if cfg.OverspendFrac == 0 {
		cfg.OverspendFrac = 0.05
	}
	return &Auditor{
		cfg:     cfg,
		shapes:  make(map[string]*shapeCal),
		ops:     make(map[string]*opCal),
		reasons: make(map[string]int64),
		flight:  make([]FlightRecord, cfg.FlightSize),
	}
}

// Track opens an audit probe for one query. gt, when non-nil, is the
// query's known ground truth (enables the CI-coverage audit; drift and
// anomaly capture work without it). The probe implements trace.Tracer:
// combine it into the engine's tracer chain and the auditor sees the
// query's full trace at EndQuery. A nil auditor returns a nil probe,
// itself a valid no-op Tracer, so callers thread an optional auditor
// without branching.
func (a *Auditor) Track(label string, gt *Truth) *Probe {
	if a == nil {
		return nil
	}
	return &Probe{a: a, label: label, truth: gt}
}

// Probe follows one query's evaluation for the auditor. It buffers the
// trace locally (no locks until EndQuery) and is confined to the
// query's goroutine until then. A nil probe is a usable no-op.
type Probe struct {
	a     *Auditor
	label string
	truth *Truth
	t     trace.QueryTrace
}

// Enabled implements trace.Tracer.
func (p *Probe) Enabled() bool { return p != nil }

// BeginQuery implements trace.Tracer.
func (p *Probe) BeginQuery(q trace.QueryInfo) {
	if p == nil {
		return
	}
	p.t.Info = q
}

// StageDone implements trace.Tracer.
func (p *Probe) StageDone(s trace.StageRecord) {
	if p == nil {
		return
	}
	p.t.Stages = append(p.t.Stages, s)
}

// EndQuery implements trace.Tracer: the buffered trace is folded into
// the auditor's aggregates (and possibly the flight ring).
func (p *Probe) EndQuery(e trace.QueryEnd) {
	if p == nil {
		return
	}
	p.t.End = e
	p.a.finish(p.label, p.truth, &p.t)
	p.t = trace.QueryTrace{}
}

// Discard drops a probe whose query failed before EndQuery. Probes
// register nothing until the query ends, so this is a no-op; it exists
// so harnesses that Discard failed trials treat probes uniformly.
func (p *Probe) Discard() {}

// DominantOp picks the operator a predicted stage's overshoot is
// attributed to: the non-base operator with the largest stage output
// (ties go to the lowest node id — the deepest operator in traversal
// order). Returns "" when the stage recorded no operators.
func DominantOp(s *trace.StageRecord) string {
	best := -1
	for i := range s.Operators {
		if best < 0 || s.Operators[i].StageOut > s.Operators[best].StageOut {
			best = i
		}
	}
	if best < 0 {
		return ""
	}
	return s.Operators[best].Op
}

// finish folds one completed query into the auditor.
func (a *Auditor) finish(label string, gt *Truth, t *trace.QueryTrace) {
	shape := t.Info.Query
	// Warm (sample-catalog) runs audit as their own shape: a stale
	// catalog that stops covering the truth must surface as that warm
	// shape's own `low` verdict, never hide inside the cold rate.
	if t.Info.Catalog != "" {
		shape += " [catalog " + t.Info.Catalog + "]"
	}

	// Coverage: does the reported interval contain the known truth? A
	// zero-width interval around a wrong estimate (e.g. a join sample
	// that saw zero matches, so stderr collapsed to 0) is not a usable
	// CI — the normal approximation behind it never held — so it is
	// tallied as degenerate rather than diluting the coverage estimate,
	// and captured by the flight recorder under its own reason.
	level := 0.0
	hit, checked, degen := false, false, false
	if gt != nil {
		checked = true
		level = gt.Level
		if level <= 0 || level >= 1 {
			level = 0.95
		}
		if t.End.Interval <= 0 && t.End.Estimate != gt.Value {
			degen = true
		} else {
			hit = math.Abs(t.End.Estimate-gt.Value) <= t.End.Interval
		}
	}

	// Drift: one ratio per predicted stage, attributed to the dominant
	// operator. Aborted stages still drifted — their prediction was
	// what admitted them into the quota.
	type obs struct {
		ratio     float64
		overshoot float64
		op        string
		stage     int
	}
	var drifts []obs
	aborted := false
	for i := range t.Stages {
		s := &t.Stages[i]
		if !s.Completed {
			aborted = true
		}
		if s.Predicted <= 0 {
			continue
		}
		drifts = append(drifts, obs{
			ratio:     float64(s.Actual) / float64(s.Predicted),
			overshoot: s.Overshoot,
			op:        DominantOp(s),
			stage:     s.Stage,
		})
	}

	// Anomaly policy: capture the full trace when the run aborted on
	// the hard deadline, overspent past the threshold, or missed known
	// ground truth.
	var reasons []string
	if checked && !degen && !hit {
		reasons = append(reasons, ReasonCIMiss)
	}
	if degen {
		reasons = append(reasons, ReasonDegenerateCI)
	}
	if aborted {
		reasons = append(reasons, ReasonDeadlineAbort)
	}
	if a.cfg.OverspendFrac >= 0 && t.End.Overspent && t.Info.Quota > 0 &&
		t.End.Overspend > time.Duration(a.cfg.OverspendFrac*float64(t.Info.Quota)) {
		reasons = append(reasons, ReasonOverspend)
	}

	a.mu.Lock()
	a.queries++
	sc := a.shapes[shape]
	if sc == nil {
		sc = &shapeCal{buckets: make(map[int]int64)}
		a.shapes[shape] = sc
	}
	sc.queries++
	if checked {
		if degen {
			a.truthDegen++
			sc.truthDegen++
		} else {
			a.truthN++
			sc.truthN++
			sc.levelSum += level
			if hit {
				a.truthHits++
				sc.truthHits++
			}
		}
	}
	for _, d := range drifts {
		sc.driftN++
		sc.driftSum += d.ratio
		sc.buckets[trace.Log2Bucket(d.ratio, driftLo, driftHi)]++
		if d.overshoot > sc.worst {
			sc.worst = d.overshoot
			sc.worstStage = d.stage
		}
		if d.op == "" {
			continue
		}
		oc := a.ops[d.op]
		if oc == nil {
			oc = &opCal{buckets: make(map[int]int64)}
			a.ops[d.op] = oc
		}
		oc.stages++
		oc.driftSum += d.ratio
		oc.buckets[trace.Log2Bucket(d.ratio, driftLo, driftHi)]++
		if d.overshoot > 0 {
			oc.overshootSum += d.overshoot
		}
		if d.overshoot > oc.worst {
			oc.worst = d.overshoot
		}
	}
	if t.End.Overspent {
		sc.overspends++
	}
	if aborted {
		sc.aborts++
	}
	if len(reasons) > 0 {
		a.captured++
		a.seq++
		for _, r := range reasons {
			a.reasons[r]++
		}
		var truth *Truth
		if gt != nil {
			cp := *gt
			cp.Level = level
			truth = &cp
		}
		rec := FlightRecord{Seq: a.seq, Label: label, Reasons: reasons, Truth: truth, Trace: *t}
		a.flight[a.next] = rec
		a.next = (a.next + 1) % len(a.flight)
		if a.held < len(a.flight) {
			a.held++
		}
	}
	a.mu.Unlock()

	// Metrics ride the shared registry outside a.mu (the registry has
	// its own lock); one Update batch keeps concurrent scrapes
	// consistent.
	if m := a.cfg.Metrics; m != nil {
		m.Update(func(tx trace.Tx) {
			tx.Add("calibration_queries", 1)
			if checked {
				tx.Add("calibration_truth_checks", 1)
				switch {
				case degen:
					tx.Add("calibration_truth_degenerate", 1)
				case hit:
					tx.Add("calibration_truth_hits", 1)
				default:
					tx.Add("calibration_truth_misses", 1)
				}
			}
			for _, d := range drifts {
				tx.Observe("calibration_drift_ratio", d.ratio)
			}
			if len(reasons) > 0 {
				tx.Add("calibration_flight_captures", 1)
				for _, r := range reasons {
					tx.Add("calibration_anomaly_"+metricName(r), 1)
				}
			}
		})
	}
}

// metricName converts a reason slug to a metric-safe suffix.
func metricName(reason string) string {
	out := make([]byte, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		if c == '-' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}

// Capture stores one externally triggered flight record — a trace the
// serving layer (rather than the auditor's own truth/drift checks)
// deemed anomalous, e.g. a wire-to-wire SLO miss. reasons name the
// triggers (typically ReasonSLOMiss); note carries free-form
// attribution. The capture lands in the same overwrite-oldest ring and
// bumps the same calibration_flight_captures / calibration_anomaly_*
// counters as internal captures.
func (a *Auditor) Capture(label, note string, reasons []string, t trace.QueryTrace) {
	if a == nil || len(reasons) == 0 {
		return
	}
	a.mu.Lock()
	a.captured++
	a.seq++
	for _, r := range reasons {
		a.reasons[r]++
	}
	rec := FlightRecord{Seq: a.seq, Label: label, Reasons: reasons, Note: note, Trace: t}
	a.flight[a.next] = rec
	a.next = (a.next + 1) % len(a.flight)
	if a.held < len(a.flight) {
		a.held++
	}
	a.mu.Unlock()

	if m := a.cfg.Metrics; m != nil {
		m.Update(func(tx trace.Tx) {
			tx.Add("calibration_flight_captures", 1)
			for _, r := range reasons {
				tx.Add("calibration_anomaly_"+metricName(r), 1)
			}
		})
	}
}

// FlightRecords returns the retained anomalous-query captures in
// chronological order (oldest first, bounded by FlightSize). The traces
// are deep state shared with the ring; treat them as read-only.
func (a *Auditor) FlightRecords() []FlightRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FlightRecord, 0, a.held)
	for i := a.held; i >= 1; i-- {
		out = append(out, a.flight[(a.next-i+len(a.flight))%len(a.flight)])
	}
	return out
}
