package tcq

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tcq/internal/calib"
	"tcq/internal/trace"
)

// ExplainAnalyze runs the time-constrained estimate and renders the
// static plan annotated with per-stage actuals: each operator's
// estimated selectivity and tuple flow from the final stage, followed
// by the stage table (chosen fraction f_i, predicted vs actual QCOST,
// overshoot, running estimate) and the run summary. The query is
// actually executed under opts — the quota is spent. The trace is
// kept by a trace.Collector appended to opts.Tracer.
func (db *DB) ExplainAnalyze(q Query, opts EstimateOptions) (string, error) {
	col := trace.NewCollector()
	opts.Tracer = trace.Combine(opts.Tracer, col)
	est, err := db.CountEstimate(q, opts)
	if err != nil {
		return "", err
	}
	out := RenderAnalyze(col.Trace())
	if opts.GroundTruth != nil {
		out += renderTruthAudit(est, *opts.GroundTruth)
	}
	return out, nil
}

// renderTruthAudit is the ground-truth line of the calibration footer:
// how the reported interval scored against the known exact answer
// (hit, miss, or degenerate when a zero-width interval sits off truth).
func renderTruthAudit(est *Estimate, truth float64) string {
	switch {
	case est.Interval <= 0 && est.Value != truth:
		return fmt.Sprintf("ground truth %.0f: degenerate zero-width CI (est %.1f)\n", truth, est.Value)
	case math.Abs(est.Value-truth) <= est.Interval:
		return fmt.Sprintf("ground truth %.0f: CI hit (est %.1f ± %.1f)\n", truth, est.Value, est.Interval)
	default:
		return fmt.Sprintf("ground truth %.0f: CI miss (est %.1f ± %.1f)\n", truth, est.Value, est.Interval)
	}
}

// RenderAnalyze renders a query trace collected by a trace.Collector
// (passed as EstimateOptions.Tracer) in the ExplainAnalyze format.
func RenderAnalyze(t *QueryTrace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "count(%s)  quota=%v strategy=%s mode=%s plan=%s sampling=%s seed=%d\n",
		t.Info.Query, t.Info.Quota, t.Info.Strategy, t.Info.Mode, t.Info.Plan,
		t.Info.Sampling, t.Info.Seed)
	if len(t.Stages) > 0 {
		last := t.Stages[len(t.Stages)-1]
		b.WriteString("operators (final-stage estimates):\n")
		renderOpTree(&b, last.Operators)
		if len(last.Relations) > 0 {
			b.WriteString("relations sampled:\n")
			for _, r := range last.Relations {
				fmt.Fprintf(&b, "  %-12s %d blocks drawn (%.1f%% of relation)\n",
					r.Relation, r.CumBlocks, 100*r.CumFraction)
			}
		}
	}
	b.WriteString("stages:\n")
	b.WriteString(trace.RenderStages(t.Stages))
	end := t.End
	fmt.Fprintf(&b, "result: %.1f ± %.1f  stages=%d blocks=%d elapsed=%v utilization=%.0f%% stop=%s\n",
		end.Estimate, end.Interval, end.Stages, end.Blocks, end.Elapsed,
		100*end.Utilization, end.StopReason)
	if end.Overspent {
		fmt.Fprintf(&b, "overspent by %v\n", end.Overspend)
	}
	// Calibration footer: how well QCOST predicted this run. Derived
	// purely from the stage records, so it is byte-identical for serial
	// and parallel evaluation of the same seed.
	n, sum := 0, 0.0
	worst, worstStage, worstOp := 0.0, 0, ""
	for i := range t.Stages {
		s := &t.Stages[i]
		if s.Predicted <= 0 {
			continue
		}
		n++
		sum += float64(s.Actual) / float64(s.Predicted)
		if n == 1 || s.Overshoot > worst {
			worst, worstStage, worstOp = s.Overshoot, s.Stage, calib.DominantOp(s)
		}
	}
	if n > 0 {
		fmt.Fprintf(&b, "calibration: %d predicted stage(s), cost ratio mean %.3f, worst overshoot %+.1f%% @ stage %d",
			n, sum/float64(n), 100*worst, worstStage)
		if worstOp != "" {
			fmt.Fprintf(&b, " (%s)", worstOp)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// renderOpTree reconstructs the operator forest from the flat OpStat
// list (roots are nodes no other node lists as a child) and prints it
// indented, one line per operator with its selectivity and tuple flow.
func renderOpTree(b *strings.Builder, ops []trace.OpStat) {
	byID := make(map[int]trace.OpStat, len(ops))
	child := make(map[int]bool)
	for _, o := range ops {
		byID[o.Node] = o
		for _, c := range o.Children {
			child[c] = true
		}
	}
	var roots []int
	for _, o := range ops {
		if !child[o.Node] {
			roots = append(roots, o.Node)
		}
	}
	sort.Ints(roots)
	var walk func(id, depth int)
	walk = func(id, depth int) {
		o, ok := byID[id]
		if !ok {
			return
		}
		pad := strings.Repeat("  ", depth+1)
		line := fmt.Sprintf("%s%s", pad, o.Op)
		if o.Expr != "" {
			line += " " + o.Expr
		}
		line += fmt.Sprintf("  (sel=%.6f", o.Sel)
		if o.SelPlus > 0 {
			line += fmt.Sprintf(" sel⁺=%.6f", o.SelPlus)
		}
		line += fmt.Sprintf(", out=%d tuples)", o.CumOut)
		b.WriteString(line + "\n")
		kids := append([]int(nil), o.Children...)
		sort.Ints(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}
