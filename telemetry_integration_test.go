// Live-telemetry integration: a query held mid-flight (blocked in its
// progress Stream callback after stage 1) must be visible, stage by stage,
// through DB.InFlight and the HTTP /queries endpoint, while /metrics
// serves a valid Prometheus exposition — and the query's result must be
// identical to an untelemetered run (the read-only contract).
package tcq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tcq"
)

// telemetryDB builds a deterministic selection workload on a DB opened
// with the given options.
func telemetryDB(t *testing.T, opts ...tcq.Option) (*tcq.DB, tcq.Query) {
	t.Helper()
	db := tcq.Open(opts...)
	rel, err := db.CreateRelation("orders", []tcq.Column{
		{Name: "id", Type: tcq.Int},
		{Name: "amount", Type: tcq.Int},
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := rel.Insert(i, (i*7919+3)%5000); err != nil {
			t.Fatal(err)
		}
	}
	return db, tcq.Rel("orders").Where(tcq.Col("amount").Lt(500))
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTelemetryServesLiveQueryProgress(t *testing.T) {
	db, q := telemetryDB(t, tcq.WithSimulatedClock(42), tcq.WithTelemetry(16))
	srv := httptest.NewServer(db.TelemetryHandler())
	defer srv.Close()

	stageReached := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *tcq.Estimate, 1)
	go func() {
		var once bool
		est, err := db.CountEstimate(q, tcq.EstimateOptions{
			Quota: 10 * time.Second,
			Seed:  7,
			Tracer: tcq.NewStream("", func(tcq.QueryProgress, bool) {
				if !once {
					once = true
					close(stageReached)
					<-release // hold the query in flight mid-evaluation
				}
			}),
		})
		if err != nil {
			t.Error(err)
		}
		done <- est
	}()

	<-stageReached
	// The query is paused after stage 1: both the API and the HTTP
	// endpoint must show a live, stage-by-stage progress record.
	inflight := db.InFlight()
	if len(inflight) != 1 {
		t.Fatalf("InFlight: want 1 query, got %d", len(inflight))
	}
	p := inflight[0]
	if p.Done || p.Stages < 1 || p.Query == "" {
		t.Errorf("live progress record wrong: %+v", p)
	}
	if len(p.Relations) == 0 || p.Relations[0].Coverage <= 0 {
		t.Errorf("live record missing relation coverage: %+v", p.Relations)
	}
	if p.SpentFrac <= 0 || p.SpentFrac > 1 {
		t.Errorf("SpentFrac = %v, want in (0,1]", p.SpentFrac)
	}
	if p.Interval <= 0 {
		t.Errorf("live record missing CI half-width: %+v", p)
	}

	var viaHTTP struct {
		Queries []tcq.QueryProgress `json:"queries"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/queries")), &viaHTTP); err != nil {
		t.Fatalf("/queries JSON: %v", err)
	}
	if len(viaHTTP.Queries) != 1 || viaHTTP.Queries[0].Stages < 1 || viaHTTP.Queries[0].Done {
		t.Errorf("/queries should show the running query: %+v", viaHTTP.Queries)
	}

	metrics := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE tcq_queries_in_flight gauge",
		"tcq_queries_in_flight 1",
		"tcq_telemetry_queries_in_flight 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics while running missing %q:\n%s", want, metrics)
		}
	}

	close(release)
	est := <-done

	if got := db.InFlight(); len(got) != 0 {
		t.Errorf("query finished but still in flight: %+v", got)
	}
	hist := db.History()
	if len(hist) != 1 || hist[0].Estimate != est.Value || hist[0].StopReason != est.StopReason {
		t.Errorf("history disagrees with estimate: %+v vs %+v", hist, est)
	}
	stats := db.QueryStats()
	if len(stats) != 1 || stats[0].Calls != 1 || stats[0].MeanCIWidth != est.Interval {
		t.Errorf("shape stats wrong: %+v", stats)
	}
	metrics = httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"tcq_queries_total 1",
		"tcq_queries_in_flight 0",
		"tcq_telemetry_queries_in_flight 0",
		"# TYPE tcq_stages_per_query histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics after finish missing %q:\n%s", want, metrics)
		}
	}
	if !strings.Contains(httpGet(t, srv.URL+"/history"), "orders") {
		t.Error("/history missing the completed query")
	}
}

// TestTelemetryReadOnly: enabling telemetry must not change any result
// field of an identically-seeded estimate (the read-only contract the
// determinism goldens enforce for the tracing layer).
func TestTelemetryReadOnly(t *testing.T) {
	run := func(opts ...tcq.Option) *tcq.Estimate {
		db, q := telemetryDB(t, opts...)
		est, err := db.CountEstimate(q, tcq.EstimateOptions{Quota: 10 * time.Second, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	plain := run(tcq.WithSimulatedClock(11))
	telem := run(tcq.WithSimulatedClock(11), tcq.WithTelemetry(8))
	if *plain != *telem {
		t.Errorf("telemetry perturbed the estimate:\nplain: %+v\ntelem: %+v", plain, telem)
	}
}

func TestTelemetryDisabledIsEmpty(t *testing.T) {
	db, q := telemetryDB(t, tcq.WithSimulatedClock(5))
	if _, err := db.CountEstimate(q, tcq.EstimateOptions{Quota: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if len(db.InFlight()) != 0 || len(db.History()) != 0 || len(db.QueryStats()) != 0 {
		t.Error("telemetry views should be empty when disabled")
	}
}

func TestWithQueryLogEmitsLifecycleEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	db, q := telemetryDB(t, tcq.WithSimulatedClock(5), tcq.WithQueryLog(logger))
	if _, err := db.CountEstimate(q, tcq.EstimateOptions{Quota: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"query started", "stage done", "quota=5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("query log missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "query finished") && !strings.Contains(out, "query overspent") {
		t.Errorf("query log missing completion event:\n%s", out)
	}
	// WithQueryLog implies telemetry.
	if len(db.History()) != 1 {
		t.Errorf("WithQueryLog should enable telemetry; history: %+v", db.History())
	}
}

func TestServeTelemetry(t *testing.T) {
	db, q := telemetryDB(t, tcq.WithSimulatedClock(9), tcq.WithTelemetry(4))
	srv, addr, err := db.ServeTelemetry(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := db.CountEstimate(q, tcq.EstimateOptions{Quota: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	body := httpGet(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "tcq_queries_total 1") {
		t.Errorf("/metrics via ServeTelemetry:\n%s", body)
	}
}

// End-to-end calibration observatory: a DB opened WithCalibration
// audits every estimate, scores declared ground truth, serves the
// report on /calibration and captured anomalies on
// /debug/flightrecorder, and surfaces coverage in QueryStats — while
// the estimate itself stays byte-identical to an unaudited run.
func TestCalibrationIntegration(t *testing.T) {
	run := func(opts ...tcq.Option) *tcq.Estimate {
		db, q := telemetryDB(t, opts...)
		truth := 500.0
		est, err := db.CountEstimate(q, tcq.EstimateOptions{
			Quota: 5 * time.Second, Seed: 3, GroundTruth: &truth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	plain := run(tcq.WithSimulatedClock(11))
	calibrated := run(tcq.WithSimulatedClock(11), tcq.WithTelemetry(8), tcq.WithCalibration(16))
	if plain.Value != calibrated.Value || plain.Interval != calibrated.Interval ||
		plain.Stages != calibrated.Stages || plain.Blocks != calibrated.Blocks {
		t.Fatalf("calibration perturbed the estimate:\nplain      %+v\ncalibrated %+v", plain, calibrated)
	}

	db, q := telemetryDB(t, tcq.WithSimulatedClock(11), tcq.WithTelemetry(8), tcq.WithCalibration(16))
	truth := 500.0
	wrong := 999999.0
	for _, r := range []struct {
		seed int64
		gt   *float64
	}{{3, &truth}, {4, &wrong}, {5, nil}} {
		if _, err := db.CountEstimate(q, tcq.EstimateOptions{Quota: 5 * time.Second, Seed: r.seed, GroundTruth: r.gt}); err != nil {
			t.Fatal(err)
		}
	}

	rep := db.Calibration()
	if rep.Queries != 3 || rep.TruthN+rep.TruthDegenerate != 2 {
		t.Fatalf("report totals wrong: %+v", rep)
	}
	if rep.TruthHits != 1 {
		t.Fatalf("want 1 hit (truth=500), got %+v", rep)
	}
	recs := db.FlightRecords()
	if len(recs) != 1 || recs[0].Truth == nil || recs[0].Truth.Value != wrong {
		t.Fatalf("the truth=999999 run should be flight-captured: %+v", recs)
	}

	// Coverage columns reach QueryStats.
	stats := db.QueryStats()
	if len(stats) != 1 || stats[0].TruthN != 2 || stats[0].TruthHits != 1 {
		t.Fatalf("QueryStats coverage wrong: %+v", stats)
	}

	// HTTP surfaces.
	srv := httptest.NewServer(db.TelemetryHandler())
	defer srv.Close()
	var gotRep tcq.CalibrationReport
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/calibration")), &gotRep); err != nil {
		t.Fatalf("/calibration JSON: %v", err)
	}
	if gotRep.Queries != 3 || gotRep.TruthHits != rep.TruthHits {
		t.Fatalf("/calibration mismatch: %+v vs %+v", gotRep, rep)
	}
	var gotFr struct {
		Records []tcq.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/flightrecorder")), &gotFr); err != nil {
		t.Fatalf("/debug/flightrecorder JSON: %v", err)
	}
	if len(gotFr.Records) != 1 || gotFr.Records[0].Trace.Info.Query == "" {
		t.Fatalf("/debug/flightrecorder records wrong: %+v", gotFr.Records)
	}
	if !strings.Contains(httpGet(t, srv.URL+"/metrics"), "tcq_calibration_queries_total 3") {
		t.Error("/metrics missing tcq_calibration_queries_total")
	}
}
