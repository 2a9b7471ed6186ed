package calib

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"tcq/internal/stats"
	"tcq/internal/trace"
)

// ShapeReport is one query shape's calibration summary.
type ShapeReport struct {
	Query   string `json:"query"`
	Queries int64  `json:"queries"`
	// Nominal is the mean nominal CI level of the truth-checked runs
	// (0 when no run carried ground truth).
	Nominal float64 `json:"nominal,omitempty"`
	// TruthN/TruthHits count ground-truth checks and interval hits;
	// Coverage is the realized rate and [CoverageLo, CoverageHi] its
	// Wilson 95% score interval. Verdict is "ok" when the nominal level
	// lies inside the Wilson interval, "low"/"high" when realized
	// coverage is significantly below/above nominal, "n/a" without
	// ground truth.
	TruthN     int64   `json:"truth_n"`
	TruthHits  int64   `json:"truth_hits"`
	Coverage   float64 `json:"coverage"`
	CoverageLo float64 `json:"coverage_lo"`
	CoverageHi float64 `json:"coverage_hi"`
	Verdict    string  `json:"verdict"`
	// TruthDegenerate counts truth-checked runs whose interval was
	// zero-width around a wrong estimate (no usable CI was produced, so
	// they are excluded from the coverage rate above and tallied here).
	TruthDegenerate int64 `json:"truth_degenerate,omitempty"`
	// DriftN counts predicted stages; DriftMean the mean
	// actual/predicted ratio; WorstOvershoot the largest single-stage
	// overshoot and WorstStage which stage produced it.
	DriftN         int64          `json:"drift_n"`
	DriftMean      float64        `json:"drift_mean"`
	WorstOvershoot float64        `json:"worst_overshoot"`
	WorstStage     int            `json:"worst_stage,omitempty"`
	Overspends     int64          `json:"overspends"`
	Aborts         int64          `json:"aborts"`
	DriftBuckets   []trace.Bucket `json:"drift_buckets,omitempty"`
}

// OperatorReport is one operator kind's drift attribution: the stages
// it dominated (largest stage output) and the prediction error charged
// to it.
type OperatorReport struct {
	Op string `json:"op"`
	// Stages counts predicted stages attributed to the operator.
	Stages    int64   `json:"stages"`
	DriftMean float64 `json:"drift_mean"`
	// OvershootSum is the summed positive overshoot attributed to the
	// operator; Worst the largest single-stage overshoot.
	OvershootSum float64        `json:"overshoot_sum"`
	Worst        float64        `json:"worst"`
	DriftBuckets []trace.Bucket `json:"drift_buckets,omitempty"`
}

// ReasonCount is one flight-capture reason's tally.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// FlightEntry is a flight record's compact digest (the report view; the
// full traces are available from FlightRecords and the
// /debug/flightrecorder endpoint).
type FlightEntry struct {
	Seq       int64         `json:"seq"`
	Label     string        `json:"label,omitempty"`
	Reasons   []string      `json:"reasons"`
	Query     string        `json:"query"`
	Stages    int           `json:"stages"`
	Estimate  float64       `json:"estimate"`
	Interval  float64       `json:"interval"`
	Truth     *float64      `json:"truth,omitempty"`
	Overspend time.Duration `json:"overspend_ns,omitempty"`
}

// FlightStats summarises the flight recorder.
type FlightStats struct {
	Capacity int           `json:"capacity"`
	Captured int64         `json:"captured"`
	Held     int           `json:"held"`
	ByReason []ReasonCount `json:"by_reason,omitempty"`
	Records  []FlightEntry `json:"records,omitempty"`
}

// Report is a deterministic snapshot of the auditor: equal audit state
// yields an identical Report (and identical rendered text), which is
// what the tcqbench -calib golden relies on.
type Report struct {
	Queries   int64 `json:"queries"`
	TruthN    int64 `json:"truth_n"`
	TruthHits int64 `json:"truth_hits"`
	// TruthDegenerate counts runs excluded from coverage because they
	// produced no usable interval (zero width, estimate off truth).
	TruthDegenerate int64 `json:"truth_degenerate,omitempty"`
	// Coverage is the overall realized coverage with its Wilson 95%
	// interval (meaningful only when TruthN > 0).
	Coverage   float64          `json:"coverage"`
	CoverageLo float64          `json:"coverage_lo"`
	CoverageHi float64          `json:"coverage_hi"`
	Shapes     []ShapeReport    `json:"shapes,omitempty"`
	Operators  []OperatorReport `json:"operators,omitempty"`
	Flight     FlightStats      `json:"flight"`
}

// verdict classifies realized coverage against the nominal level using
// the Wilson interval: nominal inside → "ok"; otherwise the realized
// rate is significantly off.
func verdict(nominal, lo, hi float64, n int64) string {
	switch {
	case n <= 0:
		return "n/a"
	case hi < nominal:
		return "low"
	case lo > nominal:
		return "high"
	default:
		return "ok"
	}
}

// Report snapshots the auditor's aggregates. Safe on a nil auditor
// (returns the zero report).
func (a *Auditor) Report() Report {
	if a == nil {
		return Report{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	rep := Report{Queries: a.queries, TruthN: a.truthN, TruthHits: a.truthHits, TruthDegenerate: a.truthDegen}
	rep.CoverageLo, rep.CoverageHi = 0, 0
	if a.truthN > 0 {
		rep.Coverage = float64(a.truthHits) / float64(a.truthN)
		rep.CoverageLo, rep.CoverageHi = stats.Wilson(a.truthHits, a.truthN, 0.95)
	}

	for q, sc := range a.shapes {
		sr := ShapeReport{
			Query:           q,
			Queries:         sc.queries,
			TruthN:          sc.truthN,
			TruthHits:       sc.truthHits,
			TruthDegenerate: sc.truthDegen,
			WorstOvershoot:  sc.worst,
			WorstStage:      sc.worstStage,
			Overspends:      sc.overspends,
			Aborts:          sc.aborts,
			DriftN:          sc.driftN,
			DriftBuckets:    trace.SortBuckets(sc.buckets),
		}
		if sc.truthN > 0 {
			sr.Nominal = sc.levelSum / float64(sc.truthN)
			sr.Coverage = float64(sc.truthHits) / float64(sc.truthN)
			sr.CoverageLo, sr.CoverageHi = stats.Wilson(sc.truthHits, sc.truthN, 0.95)
		}
		sr.Verdict = verdict(sr.Nominal, sr.CoverageLo, sr.CoverageHi, sr.TruthN)
		if sc.driftN > 0 {
			sr.DriftMean = sc.driftSum / float64(sc.driftN)
		}
		rep.Shapes = append(rep.Shapes, sr)
	}
	sort.Slice(rep.Shapes, func(i, j int) bool {
		if rep.Shapes[i].Queries != rep.Shapes[j].Queries {
			return rep.Shapes[i].Queries > rep.Shapes[j].Queries
		}
		return rep.Shapes[i].Query < rep.Shapes[j].Query
	})

	for op, oc := range a.ops {
		or := OperatorReport{
			Op:           op,
			Stages:       oc.stages,
			OvershootSum: oc.overshootSum,
			Worst:        oc.worst,
			DriftBuckets: trace.SortBuckets(oc.buckets),
		}
		if oc.stages > 0 {
			or.DriftMean = oc.driftSum / float64(oc.stages)
		}
		rep.Operators = append(rep.Operators, or)
	}
	sort.Slice(rep.Operators, func(i, j int) bool {
		if rep.Operators[i].Stages != rep.Operators[j].Stages {
			return rep.Operators[i].Stages > rep.Operators[j].Stages
		}
		return rep.Operators[i].Op < rep.Operators[j].Op
	})

	rep.Flight = FlightStats{Capacity: len(a.flight), Captured: a.captured, Held: a.held}
	for _, r := range sortedStrKeys(a.reasons) {
		rep.Flight.ByReason = append(rep.Flight.ByReason, ReasonCount{Reason: r, Count: a.reasons[r]})
	}
	for i := a.held; i >= 1; i-- {
		fr := a.flight[(a.next-i+len(a.flight))%len(a.flight)]
		e := FlightEntry{
			Seq:       fr.Seq,
			Label:     fr.Label,
			Reasons:   fr.Reasons,
			Query:     fr.Trace.Info.Query,
			Stages:    fr.Trace.End.Stages,
			Estimate:  fr.Trace.End.Estimate,
			Interval:  fr.Trace.End.Interval,
			Overspend: fr.Trace.End.Overspend,
		}
		if fr.Truth != nil {
			v := fr.Truth.Value
			e.Truth = &v
		}
		rep.Flight.Records = append(rep.Flight.Records, e)
	}
	return rep
}

func sortedStrKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RenderReport formats a report as the human-readable calibration view
// (the tcqbench -calib output and the \calib shell command). Equal
// reports render byte-identically.
func RenderReport(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "calibration: %d queries audited, %d with ground truth\n",
		r.Queries, r.TruthN+r.TruthDegenerate)
	if r.TruthN > 0 {
		fmt.Fprintf(&b, "overall coverage: %.1f%% (%d/%d), wilson95 [%.1f%%, %.1f%%]",
			100*r.Coverage, r.TruthHits, r.TruthN, 100*r.CoverageLo, 100*r.CoverageHi)
		if r.TruthDegenerate > 0 {
			fmt.Fprintf(&b, ", %d degenerate (zero-width CI) excluded", r.TruthDegenerate)
		}
		fmt.Fprintln(&b)
	}
	for _, s := range r.Shapes {
		fmt.Fprintf(&b, "\nshape: %s\n", s.Query)
		switch {
		case s.TruthN > 0:
			fmt.Fprintf(&b, "  coverage: %.1f%% (%d/%d) nominal %.0f%% wilson95 [%.1f%%, %.1f%%] -> %s",
				100*s.Coverage, s.TruthHits, s.TruthN, 100*s.Nominal,
				100*s.CoverageLo, 100*s.CoverageHi, s.Verdict)
			if s.TruthDegenerate > 0 {
				fmt.Fprintf(&b, " (+%d degenerate)", s.TruthDegenerate)
			}
			fmt.Fprintln(&b)
		case s.TruthDegenerate > 0:
			fmt.Fprintf(&b, "  coverage: no usable intervals (%d degenerate zero-width CIs)\n", s.TruthDegenerate)
		default:
			fmt.Fprintf(&b, "  coverage: no ground truth\n")
		}
		fmt.Fprintf(&b, "  drift: %d predicted stages, ratio mean %.3f, worst overshoot %+.1f%% @ stage %d\n",
			s.DriftN, s.DriftMean, 100*s.WorstOvershoot, s.WorstStage)
		fmt.Fprintf(&b, "  outcomes: %d runs, %d overspends, %d aborts\n", s.Queries, s.Overspends, s.Aborts)
		if len(s.DriftBuckets) > 0 {
			fmt.Fprintf(&b, "  ratio buckets:")
			for _, bk := range s.DriftBuckets {
				fmt.Fprintf(&b, " le_%g:%d", bk.Le(), bk.Count)
			}
			fmt.Fprintln(&b)
		}
	}
	if len(r.Operators) > 0 {
		fmt.Fprintf(&b, "\noperator drift (dominant operator per predicted stage):\n")
		for _, o := range r.Operators {
			fmt.Fprintf(&b, "  %-10s %5d stages, ratio mean %.3f, attributed overshoot %+.2f, worst %+.1f%%\n",
				o.Op, o.Stages, o.DriftMean, o.OvershootSum, 100*o.Worst)
		}
	}
	fmt.Fprintf(&b, "\nflight recorder: %d captured, %d held (cap %d)\n",
		r.Flight.Captured, r.Flight.Held, r.Flight.Capacity)
	for _, rc := range r.Flight.ByReason {
		fmt.Fprintf(&b, "  reason %-14s %d\n", rc.Reason, rc.Count)
	}
	for _, f := range r.Flight.Records {
		truth := ""
		if f.Truth != nil {
			truth = fmt.Sprintf(" truth=%.0f", *f.Truth)
		}
		over := ""
		if f.Overspend > 0 {
			over = fmt.Sprintf(" overspend=%v", f.Overspend.Round(time.Millisecond))
		}
		fmt.Fprintf(&b, "  #%d %s [%s] stages=%d est=%.1f±%.1f%s%s\n",
			f.Seq, f.Label, strings.Join(f.Reasons, ","), f.Stages, f.Estimate, f.Interval, truth, over)
	}
	return b.String()
}
