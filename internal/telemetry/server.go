package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcq/internal/calib"
	"tcq/internal/trace"
)

// Source is what the telemetry server exports: the aggregate metrics
// registry plus the live progress registry's three views. tcq.DB
// satisfies it, as does the Sources value combining a Registry with a
// trace.Registry (the CLI path).
type Source interface {
	// Metrics snapshots the aggregate metrics registry.
	Metrics() trace.Snapshot
	// InFlight snapshots the queries currently evaluating.
	InFlight() []QueryProgress
	// History lists recently completed queries, most recent first.
	History() []QuerySummary
	// QueryStats lists per-query-shape aggregates.
	QueryStats() []ShapeStat
}

// CalibrationSource is the optional extension a Source may implement
// to light up the /calibration and /debug/flightrecorder endpoints.
// tcq.DB implements it (empty unless opened WithCalibration), as does
// Sources when its Calib field is set.
type CalibrationSource interface {
	// Calibration snapshots the calibration auditor's report.
	Calibration() calib.Report
	// FlightRecords lists the captured anomalous-query traces.
	FlightRecords() []calib.FlightRecord
}

// SLOSource is the optional extension a Source may implement to light
// up the /slo endpoint (the tcqd server implements it).
type SLOSource interface {
	// SLO snapshots per-tenant deadline-hit/miss accounting.
	SLO() SLOReport
}

// Sources pairs a progress Registry with a metrics registry (and an
// optional calibration Auditor) to form a Source (for servers not
// fronted by a tcq.DB, e.g. tcqbench).
type Sources struct {
	Progress *Registry
	Reg      *trace.Registry
	Calib    *calib.Auditor
}

// Metrics implements Source.
func (s Sources) Metrics() trace.Snapshot { return s.Reg.Snapshot() }

// InFlight implements Source.
func (s Sources) InFlight() []QueryProgress { return s.Progress.InFlight() }

// History implements Source.
func (s Sources) History() []QuerySummary { return s.Progress.History() }

// QueryStats implements Source.
func (s Sources) QueryStats() []ShapeStat { return s.Progress.QueryStats() }

// Calibration implements CalibrationSource (empty without an auditor).
func (s Sources) Calibration() calib.Report { return s.Calib.Report() }

// FlightRecords implements CalibrationSource.
func (s Sources) FlightRecords() []calib.FlightRecord { return s.Calib.FlightRecords() }

// Handler builds the telemetry HTTP handler:
//
//	/metrics      Prometheus text exposition (counters, gauges,
//	              histograms from the metrics registry, plus
//	              queries_in_flight; every family carries HELP/TYPE)
//	/queries      JSON: queries currently in flight, stage-by-stage state
//	              (?label=P keeps only labels with prefix P, e.g. a tenant)
//	/history      JSON: completed-query ring + per-shape aggregates
//	              (?label=P filters the ring the same way)
//	/calibration  JSON: CI-coverage + cost-model-drift audit report
//	/debug/flightrecorder  JSON: captured anomalous-query traces
//	/debug/pprof/...  the standard net/http/pprof handlers
//	/             plain-text index of the above
func Handler(src Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, src.Metrics(), len(src.InFlight()))
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		qs := src.InFlight()
		if want := r.URL.Query().Get("label"); want != "" {
			kept := qs[:0]
			for _, q := range qs {
				if strings.HasPrefix(q.Label, want) {
					kept = append(kept, q)
				}
			}
			qs = kept
		}
		writeJSON(w, struct {
			Queries []QueryProgress `json:"queries"`
		}{qs})
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		hist := src.History()
		if want := r.URL.Query().Get("label"); want != "" {
			kept := hist[:0]
			for _, h := range hist {
				if strings.HasPrefix(h.Label, want) {
					kept = append(kept, h)
				}
			}
			hist = kept
		}
		writeJSON(w, struct {
			History []QuerySummary `json:"history"`
			Shapes  []ShapeStat    `json:"shapes"`
		}{hist, src.QueryStats()})
	})
	// Calibration endpoints answer with empty reports when the source
	// carries no auditor, so scrapers need not probe for support.
	mux.HandleFunc("/calibration", func(w http.ResponseWriter, r *http.Request) {
		var rep calib.Report
		if cs, ok := src.(CalibrationSource); ok {
			rep = cs.Calibration()
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		var recs []calib.FlightRecord
		if cs, ok := src.(CalibrationSource); ok {
			recs = cs.FlightRecords()
		}
		writeJSON(w, struct {
			Records []calib.FlightRecord `json:"records"`
		}{recs})
	})
	// /slo answers with an empty report when the source carries no SLO
	// accounting, mirroring the calibration endpoints.
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		var rep SLOReport
		if ss, ok := src.(SLOSource); ok {
			rep = ss.SLO()
		}
		if rep.Tenants == nil {
			rep.Tenants = []TenantSLO{}
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "tcq telemetry")
		fmt.Fprintln(w, "  /metrics               Prometheus text exposition")
		fmt.Fprintln(w, "  /queries               in-flight query progress (JSON)")
		fmt.Fprintln(w, "  /history               completed queries + per-shape stats (JSON)")
		fmt.Fprintln(w, "  /calibration           CI-coverage + cost-drift audit report (JSON)")
		fmt.Fprintln(w, "  /slo                   per-tenant deadline hit/miss + error-budget burn (JSON)")
		fmt.Fprintln(w, "  /debug/flightrecorder  captured anomalous-query traces (JSON)")
		fmt.Fprintln(w, "  /debug/pprof/          Go runtime profiles")
	})
	return mux
}

// RunningServer is a live telemetry (or query) server started by
// Serve: the http.Server plus the lifecycle bookkeeping that lets both
// shutdown paths coexist — context cancellation (the Ctrl-C path) and
// caller-managed Close/Shutdown — without leaking the shutdown-watcher
// goroutine, and without losing the drain error.
type RunningServer struct {
	srv  *http.Server
	addr string
	// serveDone closes when srv.Serve has returned (listener closed by
	// either Close, Shutdown, or the context watcher).
	serveDone chan struct{}
	// watchDone closes when the shutdown watcher has exited (closed
	// immediately when no watcher was needed).
	watchDone chan struct{}

	mu       sync.Mutex
	drainErr error
}

// serveGrace bounds the context-cancellation drain (overridable in
// tests).
var serveGrace = 5 * time.Second

// Addr returns the server's bound address (host:port).
func (rs *RunningServer) Addr() string { return rs.addr }

// Close force-closes the server: the listener and all active
// connections are closed immediately. The shutdown watcher, if any,
// observes the closed listener and exits — no goroutine leaks.
func (rs *RunningServer) Close() error { return rs.srv.Close() }

// Shutdown gracefully drains the server: the listener closes, in-flight
// requests finish (bounded by ctx), and the shutdown error — if the
// drain timed out — is returned and also retained for Err.
func (rs *RunningServer) Shutdown(ctx context.Context) error {
	err := rs.srv.Shutdown(ctx)
	rs.setDrainErr(err)
	return err
}

// Done returns a channel closed once the server and its shutdown
// watcher have both exited.
func (rs *RunningServer) Done() <-chan struct{} {
	done := make(chan struct{})
	go func() {
		<-rs.serveDone
		<-rs.watchDone
		close(done)
	}()
	return done
}

// Wait blocks until the server and its shutdown watcher have exited
// and returns the drain error, if any (e.g. a context-cancellation
// drain whose grace period expired with streams still open).
func (rs *RunningServer) Wait() error {
	<-rs.serveDone
	<-rs.watchDone
	return rs.Err()
}

// Err returns the retained drain error (nil while the server runs and
// after a clean drain).
func (rs *RunningServer) Err() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.drainErr
}

func (rs *RunningServer) setDrainErr(err error) {
	if err == nil {
		return
	}
	rs.mu.Lock()
	if rs.drainErr == nil {
		rs.drainErr = err
	}
	rs.mu.Unlock()
}

// Serve starts the telemetry server on addr (e.g. ":8080" or
// "127.0.0.1:0") and returns the running server plus the bound address.
// When ctx is cancelled the server shuts down gracefully — the listener
// closes and in-flight scrapes drain (bounded by a 5s grace period) —
// so Ctrl-C teardown never leaks the listener; a drain that times out
// is surfaced via Err/Wait. The caller may equally manage the
// lifecycle with Close or Shutdown: the shutdown watcher observes the
// server closing and exits either way, so it never outlives the
// server regardless of which path tore it down.
func Serve(ctx context.Context, src Source, addr string) (*RunningServer, string, error) {
	return ServeHandler(ctx, Handler(src), addr)
}

// ServeHandler is Serve over an arbitrary handler — the same
// listener/watcher lifecycle wrapped around a custom mux (the tcqd
// query service reuses it).
func ServeHandler(ctx context.Context, h http.Handler, addr string) (*RunningServer, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	rs := &RunningServer{
		srv:       &http.Server{Handler: h},
		addr:      ln.Addr().String(),
		serveDone: make(chan struct{}),
		watchDone: make(chan struct{}),
	}
	go func() {
		defer close(rs.serveDone)
		rs.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	// A never-cancelled context has a nil Done channel; skip the watcher
	// goroutine entirely rather than park one forever.
	if ctx != nil && ctx.Done() != nil {
		go func() {
			defer close(rs.watchDone)
			select {
			case <-ctx.Done():
				grace, cancel := context.WithTimeout(context.Background(), serveGrace)
				defer cancel()
				rs.setDrainErr(rs.srv.Shutdown(grace))
			case <-rs.serveDone:
				// The caller tore the server down via Close/Shutdown:
				// nothing to drain, just stop watching.
			}
		}()
	} else {
		close(rs.watchDone)
	}
	return rs, rs.addr, nil
}

// writeJSON writes v as indented JSON (deterministic: struct field
// order is fixed and map-free). The document is encoded into a buffer
// first, so an encoding failure yields a clean 500 instead of a
// half-written 200; the returned error reports an encoding failure or
// a failed write (client gone).
func writeJSON(w http.ResponseWriter, v interface{}) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "telemetry: encoding response failed", http.StatusInternalServerError)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, err := w.Write(buf.Bytes())
	return err
}

// promHelp maps registry keys to the HELP text emitted on /metrics.
// Keys missing here fall back to a generic description, so every
// family always carries a HELP line.
var promHelp = map[string]string{
	"queries":                            "estimate runs completed on this session",
	"stages":                             "adaptive sampling stages executed across all queries",
	"quota_overruns":                     "queries that exceeded their time quota",
	"blocks_read":                        "disk blocks charged to session clocks",
	"pages_written":                      "temp/output pages written",
	"temp_bytes":                         "bytes written to temp or output files",
	"comparisons":                        "sort/merge tuple comparisons",
	"deadline_polls":                     "hard-deadline expiry checks",
	"queries_in_flight":                  "estimate runs currently executing (engine gauge)",
	"coverage_fraction":                  "final sampled fraction d/D per query",
	"stages_per_query":                   "stages completed per query",
	"blocks_per_query":                   "sample blocks drawn per query",
	"utilization":                        "fraction of quota spent productively per query",
	"calibration_queries":                "queries audited by the calibration subsystem",
	"calibration_truth_checks":           "audited queries with known ground truth",
	"calibration_truth_hits":             "ground-truth checks where the CI covered the truth",
	"calibration_truth_misses":           "ground-truth checks where the CI missed the truth",
	"calibration_truth_degenerate":       "ground-truth checks with no usable CI (zero width, wrong estimate)",
	"calibration_anomaly_degenerate_ci":  "flight captures triggered by a degenerate zero-width CI",
	"calibration_drift_ratio":            "actual/predicted stage cost ratio (cost-model drift)",
	"calibration_flight_captures":        "anomalous queries captured by the flight recorder",
	"calibration_anomaly_ci_miss":        "flight captures triggered by a ground-truth CI miss",
	"calibration_anomaly_deadline_abort": "flight captures triggered by a hard-deadline abort",
	"calibration_anomaly_overspend":      "flight captures triggered by overspend past threshold",
	"calibration_anomaly_slo_miss":       "flight captures triggered by a wire-to-wire SLO miss",
	"slo_hits":                           "time-constrained requests that met their deadline, per tenant",
	"slo_misses":                         "time-constrained requests that missed their deadline, per tenant",
	"slo_infeasible":                     "admission rejections no schedule could satisfy, per tenant",
	"slo_miss_span":                      "deadline misses attributed to their dominant span",
	"slo_budget_burn":                    "error-budget burn rate (miss rate over allowed miss rate), per tenant",
	"telemetry_queries_in_flight":        "queries tracked by the progress registry right now",
	"catalog_lookups":                    "queries resolved against the sample catalog",
	"catalog_hits":                       "catalog lookups that reused a materialized sample",
	"catalog_misses":                     "catalog lookups that fell through to live sampling",
	"catalog_stale":                      "catalog misses caused by a stale (resized) relation entry",
	"catalog_blocks_reused":              "sample blocks served from catalog permutations",
	"catalog_bytes_reused":               "bytes of sample data served from catalog permutations",
}

// helpFor returns the HELP text for a registry key.
func helpFor(key string) string {
	if h, ok := promHelp[key]; ok {
		return h
	}
	return "tcq metric " + key
}

// writeProm renders a metrics snapshot in the Prometheus text
// exposition format (version 0.0.4). Counters become tcq_<name>_total,
// gauges tcq_<name>, and the registry's log2-bucket histograms proper
// Prometheus histograms with cumulative le buckets. A labeled series
// renders its label as a Prometheus label set on the base family, so
// per-tenant series share one family. Every family is preceded by its
// # HELP and # TYPE lines exactly once; families are emitted in
// lexical name order per kind, series within a family in label order
// (unlabeled first), so output for equal state is byte-identical.
// inflight is the progress registry's live occupancy, exported as
// tcq_telemetry_queries_in_flight (distinct from any engine-maintained
// queries_in_flight gauge in the snapshot).
func writeProm(w io.Writer, snap trace.Snapshot, inflight int) {
	for _, fam := range promFamilies(trace.Samples(snap.Counters, snap.Labeled.Counters)) {
		name := promName(fam[0].Key.Name) + "_total"
		promHeader(w, name, fam[0].Key.Name, "counter")
		for _, c := range fam {
			fmt.Fprintf(w, "%s%s %d\n", name, promLabels(c.Key.Label, ""), c.Value)
		}
	}
	promHeader(w, "tcq_telemetry_queries_in_flight", "telemetry_queries_in_flight", "gauge")
	fmt.Fprintf(w, "tcq_telemetry_queries_in_flight %d\n", inflight)
	for _, fam := range promFamilies(trace.Samples(snap.Gauges, snap.Labeled.Gauges)) {
		name := promName(fam[0].Key.Name)
		promHeader(w, name, fam[0].Key.Name, "gauge")
		for _, g := range fam {
			fmt.Fprintf(w, "%s%s %s\n", name, promLabels(g.Key.Label, ""), promFloat(g.Value))
		}
	}
	for _, fam := range promFamilies(trace.Samples(snap.Histograms, snap.Labeled.Histograms)) {
		name := promName(fam[0].Key.Name)
		promHeader(w, name, fam[0].Key.Name, "histogram")
		for _, s := range fam {
			h, l := s.Value, s.Key.Label
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(l, promFloat(b.Le())), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(l, "+Inf"), h.Count)
			fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(l, ""), promFloat(h.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(l, ""), h.Count)
		}
	}
}

// promHeader writes a family's # HELP and # TYPE lines.
func promHeader(w io.Writer, name, key, kind string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, helpFor(key))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// promFamilies splits name-ordered samples into families sharing a
// metric name.
func promFamilies[V any](samples []trace.Sample[V]) [][]trace.Sample[V] {
	var fams [][]trace.Sample[V]
	for i, s := range samples {
		if i > 0 && samples[i-1].Key.Name == s.Key.Name {
			fams[len(fams)-1] = append(fams[len(fams)-1], s)
			continue
		}
		fams = append(fams, []trace.Sample[V]{s})
	}
	return fams
}

// promLabels renders a series' label set: the series label (if any)
// and, for histogram bucket lines, the le bound — `{tenant="a",le="2"}`,
// or "" when both are absent. Values are escaped as the exposition
// format requires (backslash, double quote and newline).
func promLabels(l trace.Label, le string) string {
	var pairs []string
	if l != (trace.Label{}) {
		pairs = append(pairs, promLabelName(l.Key)+`="`+promEscaper.Replace(l.Value)+`"`)
	}
	if le != "" {
		pairs = append(pairs, `le="`+le+`"`)
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// promEscaper escapes a label value for the text exposition format.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promName maps a registry key to a legal Prometheus metric name under
// the tcq_ namespace.
func promName(key string) string {
	var b strings.Builder
	b.WriteString("tcq_")
	b.WriteString(promLabelName(key))
	return b.String()
}

// promLabelName sanitizes a name to the [a-zA-Z0-9_] charset.
func promLabelName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a float the exposition format accepts.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
