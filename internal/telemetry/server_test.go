package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"tcq/internal/calib"
	"tcq/internal/trace"
)

// testSource builds a Source with one in-flight query, one completed
// query, and a populated metrics registry.
func testSource() Sources {
	metrics := trace.NewRegistry()
	metrics.Add("queries", 3)
	metrics.Add("blocks_read", 120)
	metrics.SetGauge("queries_in_flight", 1)
	metrics.Observe("stages_per_query", 2)
	metrics.Observe("stages_per_query", 5)
	metrics.Observe("utilization", 0.8)

	reg := NewRegistry(8)
	feedQuery(reg.Track("done"), "select(r, a < 10)", 100, false)
	live := reg.Track("live")
	live.BeginQuery(trace.QueryInfo{Query: "join(r, s, a = a)", Quota: 10 * time.Second})
	live.StageDone(trace.StageRecord{
		Stage: 1, Fraction: 0.1, Blocks: 20, Remaining: 6 * time.Second,
		Relations: []trace.RelationDraw{{Relation: "r", Blocks: 20, Tuples: 100, CumBlocks: 20, CumFraction: 0.1}},
		Estimate:  480, StdErr: 25, Interval: 50, Completed: true, InTime: true,
	})
	return Sources{Progress: reg, Reg: metrics}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promLine matches one sample line of the text exposition format
// (label values may carry the \\, \" and \n escapes); promLabel
// extracts its label names.
var (
	promLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)
	promLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\\n]|\\[\\"n])*"`)
)

// checkPromExposition validates body against the Prometheus text
// format: every line is a comment or a sample, histograms carry
// cumulative le buckets closed by +Inf, and each family is typed.
func checkPromExposition(t *testing.T, body string) {
	t.Helper()
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition sample line: %q", line)
		}
		seen := map[string]bool{}
		for _, m := range promLabel.FindAllStringSubmatch(line, -1) {
			if seen[m[1]] {
				t.Errorf("duplicate label %q in sample line: %q", m[1], line)
			}
			seen[m[1]] = true
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testSource()))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkPromExposition(t, body)
	for _, want := range []string{
		"tcq_queries_total 3",
		"tcq_blocks_read_total 120",
		"tcq_queries_in_flight 1",
		"tcq_telemetry_queries_in_flight 1",
		"# TYPE tcq_stages_per_query histogram",
		`tcq_stages_per_query_bucket{le="2"} 1`,
		`tcq_stages_per_query_bucket{le="+Inf"} 2`,
		"tcq_stages_per_query_sum 7",
		"tcq_stages_per_query_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Histogram buckets must be cumulative and non-decreasing.
	if strings.Index(body, `le="2"`) > strings.Index(body, `le="8"`) && strings.Contains(body, `le="8"`) {
		t.Errorf("buckets out of order:\n%s", body)
	}
	// Deterministic: a second scrape of unchanged state is identical.
	_, again := get(t, srv, "/metrics")
	if body != again {
		t.Errorf("scrapes of equal state differ:\n%s\n---\n%s", body, again)
	}
}

func TestQueriesEndpointShowsLiveQuery(t *testing.T) {
	srv := httptest.NewServer(Handler(testSource()))
	defer srv.Close()

	code, body := get(t, srv, "/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries status %d", code)
	}
	var got struct {
		Queries []QueryProgress `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("invalid /queries JSON: %v\n%s", err, body)
	}
	if len(got.Queries) != 1 {
		t.Fatalf("want 1 live query, got %d:\n%s", len(got.Queries), body)
	}
	q := got.Queries[0]
	if q.Query != "join(r, s, a = a)" || q.Done || q.Stages != 1 || q.Estimate != 480 {
		t.Errorf("live record wrong: %+v", q)
	}
	if len(q.Relations) != 1 || q.Relations[0].Coverage != 0.1 {
		t.Errorf("live relations wrong: %+v", q.Relations)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(testSource()))
	defer srv.Close()

	code, body := get(t, srv, "/history")
	if code != http.StatusOK {
		t.Fatalf("/history status %d", code)
	}
	var got struct {
		History []QuerySummary `json:"history"`
		Shapes  []ShapeStat    `json:"shapes"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("invalid /history JSON: %v\n%s", err, body)
	}
	if len(got.History) != 1 || got.History[0].Query != "select(r, a < 10)" {
		t.Errorf("history wrong: %+v", got.History)
	}
	if len(got.Shapes) != 1 || got.Shapes[0].Calls != 1 {
		t.Errorf("shapes wrong: %+v", got.Shapes)
	}
}

func TestIndexAndPprof(t *testing.T) {
	srv := httptest.NewServer(Handler(testSource()))
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d\n%s", code, body)
	}
	code, _ = get(t, srv, "/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", code)
	}
	code, body = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: %d", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	srv, addr, err := Serve(context.Background(), testSource(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, _, err := Serve(context.Background(), testSource(), addr); err == nil {
		t.Error("second bind on same addr should fail")
	}
}

// Cancelling the Serve context must gracefully stop the server: new
// connections are refused shortly after, and the listener is released
// so the address can be rebound.
func TestServeContextCancelShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, addr, err := Serve(ctx, testSource(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			break // server stopped accepting
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after context cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The port must be released for rebinding.
	srv2, _, err := Serve(context.Background(), testSource(), addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	srv2.Close()
}

// Every tcq_* family on /metrics must carry a # HELP line immediately
// before its # TYPE line, and repeated scrapes of equal state must be
// byte-identical (diff-stable for scrape tooling).
func TestMetricsHelpLines(t *testing.T) {
	srv := httptest.NewServer(Handler(testSource()))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	families := 0
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		families++
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("family %s: TYPE line not preceded by its HELP line", name)
		}
		if help := strings.TrimPrefix(lines[i-1], "# HELP "+name+" "); strings.TrimSpace(help) == "" {
			t.Errorf("family %s: empty HELP text", name)
		}
	}
	if families == 0 {
		t.Fatalf("no TYPE lines found:\n%s", body)
	}
	_, again := get(t, srv, "/metrics")
	if body != again {
		t.Error("scrapes of equal state differ")
	}
}

// calibSource extends testSource with a populated calibration auditor.
func calibSource() Sources {
	s := testSource()
	a := calib.NewAuditor(calib.Config{FlightSize: 4})
	p := a.Track("t1", &calib.Truth{Value: 100})
	p.BeginQuery(trace.QueryInfo{Query: "sel(r)", Quota: 10 * time.Second})
	p.StageDone(trace.StageRecord{Stage: 1, Predicted: time.Second, Actual: 2 * time.Second, Overshoot: 1, Completed: true})
	p.EndQuery(trace.QueryEnd{Stages: 1, Estimate: 500, Interval: 10, StopReason: "done"}) // miss → captured
	s.Calib = a
	return s
}

func TestCalibrationEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(calibSource()))
	defer srv.Close()
	code, body := get(t, srv, "/calibration")
	if code != http.StatusOK {
		t.Fatalf("/calibration status %d", code)
	}
	var rep calib.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("invalid /calibration JSON: %v\n%s", err, body)
	}
	if rep.Queries != 1 || rep.TruthN != 1 || rep.TruthHits != 0 {
		t.Errorf("report wrong: %+v", rep)
	}
	if len(rep.Shapes) != 1 || rep.Shapes[0].Query != "sel(r)" {
		t.Errorf("shapes wrong: %+v", rep.Shapes)
	}
	// Without a calibration source the endpoint serves the zero report.
	plain := httptest.NewServer(Handler(testSource()))
	defer plain.Close()
	code, body = get(t, plain, "/calibration")
	if code != http.StatusOK || !strings.Contains(body, `"queries": 0`) {
		t.Errorf("no-calib /calibration: %d\n%s", code, body)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(calibSource()))
	defer srv.Close()
	code, body := get(t, srv, "/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status %d", code)
	}
	var got struct {
		Records []calib.FlightRecord `json:"records"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(got.Records) != 1 {
		t.Fatalf("want 1 flight record, got %d:\n%s", len(got.Records), body)
	}
	r := got.Records[0]
	if r.Label != "t1" || len(r.Reasons) == 0 || r.Reasons[0] != calib.ReasonCIMiss {
		t.Errorf("record wrong: %+v", r)
	}
	if r.Trace.Info.Query != "sel(r)" || len(r.Trace.Stages) != 1 {
		t.Errorf("captured trace incomplete: %+v", r.Trace)
	}
}
