// Package trace is the observability layer of the time-constrained
// estimation loop: a zero-dependency Tracer interface the engine
// (internal/core) invokes once per query and once per stage, plus the
// record types describing what the adaptive algorithm of Section 3
// actually did — the estimated operator selectivities behind each
// Sample-Size-Determine decision, the binary-search-chosen fraction
// f_i, predicted QCOST versus realised charged cost, blocks drawn per
// relation, tuples flowing through each RA operator, the physical
// charge counters, and the estimator trajectory.
//
// All timestamps and durations come from the session's vclock.Clock, so
// under a simulated clock a trace is fully deterministic: the same seed
// produces a byte-identical trace, which is what the golden test in
// scripts/check.sh enforces.
//
// The default tracer is Nop, whose Enabled() gate lets the engine skip
// all record construction — the hot path pays nothing when tracing is
// off (guarded by the trace-overhead benchmark and the tcqbench -perf
// gate).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// QueryInfo opens a query's trace: the static facts of the evaluation.
type QueryInfo struct {
	// Query is the relational algebra expression being counted.
	Query string `json:"query"`
	// Quota is the time constraint T.
	Quota time.Duration `json:"quota_ns"`
	// Strategy names the time-control strategy sizing the stages.
	Strategy string `json:"strategy"`
	// Mode is "hard" (abort at expiry) or "overrun" (ERAM mode).
	Mode string `json:"mode"`
	// Plan is "full" or "partial" fulfillment.
	Plan string `json:"plan"`
	// Sampling is "cluster" or "srs".
	Sampling string `json:"sampling"`
	// Catalog tags sample-catalog reuse: "hit" when the run replays a
	// materialized catalog sample, empty on a miss or when no catalog
	// is configured — so miss-path traces stay byte-identical to
	// catalog-disabled ones, and calibration can audit warm coverage
	// separately from cold.
	Catalog string `json:"catalog,omitempty"`
	// Seed drove the block sampler.
	Seed int64 `json:"seed"`
	// Start is the session clock reading when evaluation began.
	Start time.Duration `json:"start_ns"`
}

// RelationDraw is one relation's share of a stage's sample.
type RelationDraw struct {
	Relation string `json:"relation"`
	// Blocks and Tuples are this stage's draw (sample units: disk
	// blocks under cluster sampling, single tuples under SRS).
	Blocks int `json:"blocks"`
	Tuples int `json:"tuples"`
	// CumBlocks and CumFraction are the cumulative sample after the
	// stage; CumFraction is the coverage d/D of Figure 3.1.
	CumBlocks   int     `json:"cum_blocks"`
	CumFraction float64 `json:"cum_fraction"`
}

// OpStat is one RA operator's state after a stage: the run-time
// selectivity estimate of Fig. 3.3, the inflated sel⁺ the stage was
// planned with (Fig. 3.5), and the tuple flow through the operator.
type OpStat struct {
	Node int    `json:"node"`
	Op   string `json:"op"`
	// Expr is the subexpression the node evaluates.
	Expr string `json:"expr,omitempty"`
	// Children lists operand node ids (base relations included), so a
	// consumer can rebuild the plan tree.
	Children []int `json:"children,omitempty"`
	// Sel is the sample selectivity estimate after the stage.
	Sel float64 `json:"sel"`
	// SelPlus is the inflated selectivity the stage was planned with
	// (0 when the operator did not participate in planning).
	SelPlus float64 `json:"sel_plus,omitempty"`
	// StageOut is the stage's new output tuples; CumOut and CumPoints
	// are the cumulative output and covered point space.
	StageOut  int64   `json:"stage_out"`
	CumOut    int64   `json:"cum_out"`
	CumPoints float64 `json:"cum_points"`
}

// Charges is the stage's physical work delta: what the executors
// charged to the session clock while the stage ran.
type Charges struct {
	BlocksRead    int64 `json:"blocks_read"`
	PagesWritten  int64 `json:"pages_written"`
	TuplesRead    int64 `json:"tuples_read"`
	TuplesWritten int64 `json:"tuples_written"`
	// TempBytes is the bytes written to temp/output files.
	TempBytes int64 `json:"temp_bytes"`
	// Comparisons counts sort/merge tuple comparisons.
	Comparisons int64 `json:"comparisons"`
	// DeadlinePolls counts hard-deadline checks.
	DeadlinePolls int64 `json:"deadline_polls"`
}

// Sub returns the delta c − prev (both snapshots of the same session).
func (c Charges) Sub(prev Charges) Charges {
	return Charges{
		BlocksRead:    c.BlocksRead - prev.BlocksRead,
		PagesWritten:  c.PagesWritten - prev.PagesWritten,
		TuplesRead:    c.TuplesRead - prev.TuplesRead,
		TuplesWritten: c.TuplesWritten - prev.TuplesWritten,
		TempBytes:     c.TempBytes - prev.TempBytes,
		Comparisons:   c.Comparisons - prev.Comparisons,
		DeadlinePolls: c.DeadlinePolls - prev.DeadlinePolls,
	}
}

// StageRecord documents one stage of the adaptive loop.
type StageRecord struct {
	// Stage is the 1-based stage number.
	Stage int `json:"stage"`
	// Fraction is the binary-search-chosen sample fraction f_i
	// (Fig. 3.4); SearchIters is how many bisection iterations the
	// search took, and DBeta the risk knob the sel⁺ inflation used.
	Fraction    float64 `json:"fraction"`
	SearchIters int     `json:"search_iters"`
	DBeta       float64 `json:"d_beta,omitempty"`
	// Predicted is QCOST(f_i, SEL⁺); Actual the realised stage
	// duration; Overshoot the risk margin Actual/Predicted − 1
	// (0 when no prediction was made).
	Predicted time.Duration `json:"predicted_ns"`
	Actual    time.Duration `json:"actual_ns"`
	Overshoot float64       `json:"overshoot"`
	// Remaining is the quota left after the stage (negative when the
	// stage overran).
	Remaining time.Duration `json:"remaining_ns"`
	// Blocks is the stage's total sample units across relations.
	Blocks    int            `json:"blocks"`
	Relations []RelationDraw `json:"relations,omitempty"`
	Operators []OpStat       `json:"operators,omitempty"`
	Charges   Charges        `json:"charges"`
	// Estimate, StdErr and Interval are the estimator state after the
	// stage (zero for an aborted stage, which produces no estimate).
	Estimate float64 `json:"estimate"`
	StdErr   float64 `json:"stderr"`
	Interval float64 `json:"interval"`
	// Completed is false when the hard deadline aborted the stage;
	// InTime reports whether it finished within the quota.
	Completed bool `json:"completed"`
	InTime    bool `json:"in_time"`
}

// QueryEnd closes a query's trace with the final outcome.
type QueryEnd struct {
	Stages  int           `json:"stages"`
	Blocks  int           `json:"blocks"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Successful is the time through the last within-quota stage.
	Successful  time.Duration `json:"successful_ns"`
	Utilization float64       `json:"utilization"`
	Overspent   bool          `json:"overspent"`
	Overspend   time.Duration `json:"overspend_ns"`
	// StopReason is which stopping criterion fired (§3.2).
	StopReason string  `json:"stop_reason"`
	Estimate   float64 `json:"estimate"`
	StdErr     float64 `json:"stderr"`
	Interval   float64 `json:"interval"`
}

// Tracer observes one query evaluation. Implementations must not
// charge the session clock or consume engine randomness: tracing is
// read-only with respect to the simulation, so the determinism goldens
// hold whether tracing is on or off.
type Tracer interface {
	// Enabled gates record construction: the engine skips building
	// stage detail entirely when it returns false.
	Enabled() bool
	// BeginQuery opens a query's trace.
	BeginQuery(QueryInfo)
	// StageDone reports a completed (or aborted) stage.
	StageDone(StageRecord)
	// EndQuery closes the trace with the final outcome.
	EndQuery(QueryEnd)
}

// Nop is the no-op tracer: Enabled() is false and every callback does
// nothing. It is the engine default.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Enabled() bool         { return false }
func (nopTracer) BeginQuery(QueryInfo)  {}
func (nopTracer) StageDone(StageRecord) {}
func (nopTracer) EndQuery(QueryEnd)     {}

// QueryTrace is one query's complete trace, as captured by a Collector.
type QueryTrace struct {
	Info   QueryInfo     `json:"info"`
	Stages []StageRecord `json:"stages"`
	End    QueryEnd      `json:"end"`
}

// Replay plays the trace back into another tracer (used to emit
// deterministic JSON from parallel bench trials: collect per trial,
// replay in trial order).
func (t *QueryTrace) Replay(dst Tracer) {
	dst.BeginQuery(t.Info)
	for _, s := range t.Stages {
		dst.StageDone(s)
	}
	dst.EndQuery(t.End)
}

// Collector accumulates a QueryTrace in memory.
type Collector struct {
	t QueryTrace
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled implements Tracer (a nil collector is disabled).
func (c *Collector) Enabled() bool { return c != nil }

// BeginQuery implements Tracer.
func (c *Collector) BeginQuery(q QueryInfo) { c.t.Info = q }

// StageDone implements Tracer.
func (c *Collector) StageDone(s StageRecord) { c.t.Stages = append(c.t.Stages, s) }

// EndQuery implements Tracer.
func (c *Collector) EndQuery(e QueryEnd) { c.t.End = e }

// Trace returns the collected trace (the collector's own storage; take
// it after the query finishes).
func (c *Collector) Trace() *QueryTrace { return &c.t }

// Multi fans records out to several tracers; it is enabled when any
// target is.
type Multi []Tracer

// Enabled implements Tracer.
func (m Multi) Enabled() bool {
	for _, t := range m {
		if t.Enabled() {
			return true
		}
	}
	return false
}

// BeginQuery implements Tracer.
func (m Multi) BeginQuery(q QueryInfo) {
	for _, t := range m {
		t.BeginQuery(q)
	}
}

// StageDone implements Tracer.
func (m Multi) StageDone(s StageRecord) {
	for _, t := range m {
		t.StageDone(s)
	}
}

// EndQuery implements Tracer.
func (m Multi) EndQuery(e QueryEnd) {
	for _, t := range m {
		t.EndQuery(e)
	}
}

// Combine merges tracers in order, dropping nils and disabled tracers
// (Nop, and the typed-nil handles, probes and streams an observer
// hands out when it is switched off); it returns Nop when nothing
// remains. A disabled tracer never receives callbacks, in a chain or
// alone.
func Combine(ts ...Tracer) Tracer {
	var out Multi
	for _, t := range ts {
		if t == nil || !t.Enabled() {
			continue
		}
		out = append(out, t)
	}
	switch len(out) {
	case 0:
		return Nop
	case 1:
		return out[0]
	}
	return out
}

// Text is a human-readable tracer: one block of lines per stage (the
// debugging view of the time-control algorithm, e.g. tcqsh's
// \trace on).
type Text struct {
	W io.Writer
}

// NewText creates a text tracer writing to w.
func NewText(w io.Writer) *Text { return &Text{W: w} }

// Enabled implements Tracer.
func (t *Text) Enabled() bool { return t.W != nil }

// BeginQuery implements Tracer.
func (t *Text) BeginQuery(q QueryInfo) {}

// StageDone implements Tracer.
func (t *Text) StageDone(s StageRecord) {
	fmt.Fprintf(t.W,
		"stage %d: f=%.4f blocks=%d predicted=%v actual=%v remaining=%v aborted=%v\n",
		s.Stage, s.Fraction, s.Blocks,
		s.Predicted.Round(time.Millisecond), s.Actual.Round(time.Millisecond),
		s.Remaining.Round(time.Millisecond), !s.Completed)
	for _, op := range s.Operators {
		fmt.Fprintf(t.W, "  node %d %s: sel=%.6f (out=%d points=%.0f)\n",
			op.Node, op.Op, op.Sel, op.CumOut, op.CumPoints)
	}
}

// EndQuery implements Tracer.
func (t *Text) EndQuery(e QueryEnd) {}

// RenderStages formats a trace's stage table (used by ExplainAnalyze
// and available to any consumer of a collected trace).
func RenderStages(stages []StageRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %8s %7s %10s %10s %7s %12s %10s\n",
		"stage", "f", "blocks", "predicted", "actual", "over%", "estimate", "±")
	for _, s := range stages {
		note := ""
		if !s.Completed {
			note = "  (aborted)"
		} else if !s.InTime {
			note = "  (overran)"
		}
		fmt.Fprintf(&b, "%5d %8.4f %7d %10v %10v %7.1f %12.1f %10.1f%s\n",
			s.Stage, s.Fraction, s.Blocks,
			s.Predicted.Round(time.Millisecond), s.Actual.Round(time.Millisecond),
			100*s.Overshoot, s.Estimate, s.Interval, note)
	}
	return b.String()
}

// SortOps orders operator stats by node id (traversal order is
// child-first and stable, but sorting makes consumers independent of
// it).
func SortOps(ops []OpStat) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Node < ops[j].Node })
}
