package telemetry

import "tcq/internal/trace"

// Stream adapts the progress-tracking machinery into a push feed: it
// implements trace.Tracer like a Registry handle, but instead of
// parking snapshots in a registry it calls fn with the query's
// cumulative QueryProgress after every completed stage and once more —
// with done=true — when the query ends. tcqd combines a Stream into
// each network query's tracer chain to emit the progressive
// estimate±CI records of its NDJSON/SSE response.
//
// fn runs synchronously on the goroutine evaluating the query (tracer
// callbacks are sequential), so it may write to a response stream
// without locking; it must not block indefinitely or it stalls the
// query. A nil Stream is a valid no-op Tracer.
type Stream struct {
	h  *Handle
	fn func(p QueryProgress, done bool)
}

// NewStream builds a streaming progress tracer. label tags the emitted
// snapshots (e.g. "tenant/request-id"); fn receives every progress
// record.
func NewStream(label string, fn func(p QueryProgress, done bool)) *Stream {
	return &Stream{h: &Handle{p: QueryProgress{Label: label}}, fn: fn}
}

// Enabled implements trace.Tracer.
func (s *Stream) Enabled() bool { return s != nil }

// BeginQuery implements trace.Tracer.
func (s *Stream) BeginQuery(q trace.QueryInfo) {
	if s == nil {
		return
	}
	s.h.BeginQuery(q)
}

// StageDone implements trace.Tracer: completed stages push a snapshot.
// Aborted partial stages update the internal state (blocks, elapsed)
// but emit nothing — the terminal EndQuery push carries them.
func (s *Stream) StageDone(rec trace.StageRecord) {
	if s == nil {
		return
	}
	s.h.StageDone(rec)
	if rec.Completed {
		s.fn(s.h.Progress(), false)
	}
}

// EndQuery implements trace.Tracer: the final snapshot is pushed with
// done=true (its StopReason and Overspent fields are set).
func (s *Stream) EndQuery(e trace.QueryEnd) {
	if s == nil {
		return
	}
	s.h.EndQuery(e)
	s.fn(s.h.Progress(), true)
}
