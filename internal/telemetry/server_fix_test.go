package telemetry

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"tcq/internal/trace"
)

// Regression: Serve's shutdown watcher used to park on ctx.Done()
// forever when the caller tore the server down via Close instead of
// cancelling the context — one leaked goroutine per server. The
// watcher must now observe the server closing and exit.
func TestServeCloseDoesNotLeakWatcher(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // never cancelled before Close — the leaking scenario

	runtime.GC()
	before := runtime.NumGoroutine()
	const rounds = 10
	for i := 0; i < rounds; i++ {
		srv, _, err := Serve(ctx, testSource(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-srv.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("watcher did not exit after Close")
		}
		if err := srv.Wait(); err != nil {
			t.Errorf("Wait after clean Close = %v, want nil", err)
		}
	}
	// The watchers must all be gone; allow slack for runtime goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n < before+rounds {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before=%d after=%d: watcher leak", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedSource blocks Metrics until released, pinning a /metrics
// request in flight; entered reports each handler reaching the gate.
type gatedSource struct {
	Sources
	entered chan struct{}
	gate    chan struct{}
}

func (g gatedSource) Metrics() trace.Snapshot {
	g.entered <- struct{}{}
	<-g.gate
	return g.Sources.Metrics()
}

// Regression: the context-cancellation drain discarded the Shutdown
// error, so a drain that timed out with requests still in flight was
// indistinguishable from a clean stop. The error must surface via
// Err/Wait.
func TestServeContextDrainErrorSurfaced(t *testing.T) {
	old := serveGrace
	serveGrace = 30 * time.Millisecond
	defer func() { serveGrace = old }()

	src := gatedSource{Sources: testSource(), entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	srv, addr, err := Serve(ctx, src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Pin one scrape inside the gated Metrics call...
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			resp.Body.Close()
		}
	}()
	// ...wait until the handler is actually blocked on the gate, then
	// cancel: the grace period expires with the stream still open.
	select {
	case <-src.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}
	cancel()
	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Wait = %v, want context.DeadlineExceeded (drain timed out)", err)
		}
		if !errors.Is(srv.Err(), context.DeadlineExceeded) {
			t.Errorf("Err = %v, want the retained drain error", srv.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait hung after cancelled context")
	}
	close(src.gate) // release the pinned handler
	srv.Close()
	<-reqDone
}

// errWriter fails every write, simulating a client that vanished
// mid-response.
type errWriter struct {
	httptest.ResponseRecorder
}

func (e *errWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// Regression: writeJSON ignored encode errors. A value that cannot
// marshal must yield a clean 500 (no half-written 200 body), and a
// failing writer must surface its error instead of being swallowed.
func TestWriteJSONErrors(t *testing.T) {
	// Unmarshalable value → 500, nothing of the document written.
	rec := httptest.NewRecorder()
	if err := writeJSON(rec, struct{ F func() }{}); err == nil {
		t.Error("writeJSON(func field) returned nil error")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "{") {
		t.Errorf("partial JSON written alongside the error: %q", rec.Body.String())
	}

	// Failing writer → the write error is returned, not dropped.
	ew := &errWriter{ResponseRecorder: *httptest.NewRecorder()}
	if err := writeJSON(ew, map[string]int{"ok": 1}); err == nil {
		t.Error("writeJSON(failing writer) returned nil error")
	}

	// Healthy path still encodes (guard against over-correcting).
	ok := httptest.NewRecorder()
	if err := writeJSON(ok, map[string]int{"ok": 1}); err != nil {
		t.Fatalf("writeJSON healthy path: %v", err)
	}
	if ok.Code != http.StatusOK || !strings.Contains(ok.Body.String(), `"ok": 1`) {
		t.Errorf("healthy response wrong: %d %q", ok.Code, ok.Body.String())
	}
}

// Labeled series must render as Prometheus label sets sharing one
// family: one HELP/TYPE block, one series per label, deterministic
// order, and unlabeled families byte-identical to the pre-label
// renderer.
func TestMetricsLabeledSeries(t *testing.T) {
	src := testSource()
	alice := trace.Label{Key: "tenant", Value: "alice"}
	src.Reg.Add("tenant_queries", 5, alice)
	src.Reg.Add("tenant_queries", 2, trace.Label{Key: "tenant", Value: "bob"})
	src.Reg.SetGauge("tenant_window", 1.5, alice)
	src.Reg.Observe("request_seconds", 0.5, alice)

	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	checkPromExposition(t, body)
	for _, want := range []string{
		`tcq_tenant_queries_total{tenant="alice"} 5`,
		`tcq_tenant_queries_total{tenant="bob"} 2`,
		`tcq_tenant_window{tenant="alice"} 1.5`,
		`tcq_request_seconds_sum{tenant="alice"} 0.5`,
		`tcq_request_seconds_count{tenant="alice"} 1`,
		`tcq_request_seconds_bucket{tenant="alice",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE tcq_tenant_queries_total counter"); n != 1 {
		t.Errorf("family TYPE emitted %d times, want once", n)
	}
	if strings.Index(body, `tenant="alice"} 5`) > strings.Index(body, `tenant="bob"`) {
		t.Error("labeled series not in lexical label order")
	}
	_, again := get(t, srv, "/metrics")
	if body != again {
		t.Error("labeled scrapes of equal state differ")
	}
}

// Label values are data: separators, quotes and backslashes inside a
// value must stay inside one escaped label, never add a label or
// duplicate le.
func TestMetricsLabelValuesEscaped(t *testing.T) {
	src := testSource()
	for _, v := range []string{"a,evil=1", "b,le=9", `x"y\z`, "multi\nline"} {
		src.Reg.Observe("request_seconds", 0.5, trace.Label{Key: "tenant", Value: v})
	}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	checkPromExposition(t, body)
	for _, want := range []string{
		`tcq_request_seconds_bucket{tenant="a,evil=1",le="1"} 1`,
		`tcq_request_seconds_bucket{tenant="b,le=9",le="1"} 1`,
		`tcq_request_seconds_count{tenant="x\"y\\z"} 1`,
		`tcq_request_seconds_count{tenant="multi\nline"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// ?label= filters /queries and /history by label prefix, the tenant
// drill-down path.
func TestLabelFilter(t *testing.T) {
	reg := NewRegistry(8)
	feedQuery(reg.Track("alice/1"), "select(r, a < 10)", 100, false)
	feedQuery(reg.Track("bob/1"), "select(r, a < 10)", 90, false)
	live := reg.Track("alice/2")
	live.BeginQuery(trace.QueryInfo{Query: "sel(r)", Quota: time.Second})
	live.StageDone(trace.StageRecord{Stage: 1, Completed: true, Estimate: 7})
	src := Sources{Progress: reg, Reg: trace.NewRegistry()}
	srv := httptest.NewServer(Handler(src))
	defer srv.Close()

	_, body := get(t, srv, "/queries?label=alice")
	if !strings.Contains(body, "alice/2") || strings.Contains(body, "bob/") {
		t.Errorf("/queries?label=alice wrong:\n%s", body)
	}
	_, body = get(t, srv, "/history?label=bob")
	if !strings.Contains(body, "bob/1") || strings.Contains(body, "alice/") {
		t.Errorf("/history?label=bob wrong:\n%s", body)
	}
	_, body = get(t, srv, "/history?label=nobody")
	if strings.Contains(body, "alice/") || strings.Contains(body, "bob/") {
		t.Errorf("/history?label=nobody should be empty:\n%s", body)
	}
}

// Stream must push one snapshot per completed stage plus a terminal
// done=true snapshot carrying the stop reason.
func TestStreamTracer(t *testing.T) {
	type push struct {
		p    QueryProgress
		done bool
	}
	var got []push
	s := NewStream("alice/7", func(p QueryProgress, done bool) {
		got = append(got, push{p, done})
	})
	s.BeginQuery(trace.QueryInfo{Query: "sel(r)", Quota: 10 * time.Second, Strategy: "secant"})
	s.StageDone(trace.StageRecord{
		Stage: 1, Blocks: 10, Remaining: 8 * time.Second,
		Estimate: 90, StdErr: 9, Interval: 18, Completed: true, InTime: true,
	})
	s.StageDone(trace.StageRecord{
		Stage: 2, Blocks: 20, Remaining: 4 * time.Second,
		Estimate: 100, StdErr: 4, Interval: 8, Completed: true, InTime: true,
	})
	// An aborted partial stage emits nothing by itself...
	s.StageDone(trace.StageRecord{Stage: 3, Blocks: 5, Completed: false})
	s.EndQuery(trace.QueryEnd{
		Stages: 2, Blocks: 35, Elapsed: 7 * time.Second,
		Estimate: 100, StdErr: 4, Interval: 8, StopReason: "ci-met",
	})
	if len(got) != 3 {
		t.Fatalf("want 3 pushes (2 stages + final), got %d", len(got))
	}
	if got[0].done || got[1].done || !got[2].done {
		t.Errorf("done flags wrong: %v %v %v", got[0].done, got[1].done, got[2].done)
	}
	if got[0].p.Estimate != 90 || got[0].p.Stages != 1 || got[0].p.Label != "alice/7" {
		t.Errorf("first push wrong: %+v", got[0].p)
	}
	if got[1].p.Estimate != 100 || got[1].p.Interval != 8 {
		t.Errorf("second push wrong: %+v", got[1].p)
	}
	fin := got[2].p
	if !fin.Done || fin.StopReason != "ci-met" || fin.Blocks != 35 || fin.Query != "sel(r)" {
		t.Errorf("final push wrong: %+v", fin)
	}
	// Nil stream is a no-op tracer.
	var nilStream *Stream
	if nilStream.Enabled() {
		t.Error("nil Stream reports Enabled")
	}
	nilStream.BeginQuery(trace.QueryInfo{})
	nilStream.StageDone(trace.StageRecord{Completed: true})
	nilStream.EndQuery(trace.QueryEnd{})
}
