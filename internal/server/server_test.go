// Serving-path integration: streaming protocol shape, concurrent
// clients vs serial replay, typed rejection mapping, per-tenant metric
// sums and graceful drain — all exercised through real loopback HTTP
// (run under -race by scripts/check.sh).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tcq"
	"tcq/internal/client"
	"tcq/internal/telemetry"
	"tcq/internal/trace"
	"tcq/internal/wire"
)

// testDB builds a deterministic single-relation database.
func testDB(t testing.TB, opts ...tcq.Option) *tcq.DB {
	t.Helper()
	if len(opts) == 0 {
		opts = []tcq.Option{tcq.WithSimulatedClock(1), tcq.WithTelemetry(64)}
	}
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
	return db
}

// startServer runs a tcqd over db on loopback and returns the server,
// a client bound to it, and its lifecycle handle.
func startServer(t *testing.T, db *tcq.DB, cfg Config) (*Server, *client.Client, *telemetry.RunningServer) {
	t.Helper()
	cfg.DB = db
	s := New(cfg)
	rs, addr, err := s.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	return s, client.New(addr, ""), rs
}

const testSQL = "SELECT COUNT(*) FROM orders WHERE amount < 500"

func TestStreamingQueryEvents(t *testing.T) {
	db := testDB(t)
	_, cl, _ := startServer(t, db, Config{})

	var progress []wire.Event
	res, err := cl.Query(context.Background(), wire.QueryRequest{
		Tenant: "alice", SQL: testSQL,
		Quota: (5 * time.Second), Seed: 7, Stream: true,
	}, func(ev wire.Event) { progress = append(progress, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Event != "result" || res.Kind != "count" {
		t.Fatalf("terminal event wrong: %+v", res)
	}
	if len(progress) < 1 {
		t.Fatal("no progress events streamed")
	}
	for i, ev := range progress {
		if ev.Stage != i+1 {
			t.Errorf("progress %d: stage %d, want %d (monotonic per-stage events)", i, ev.Stage, i+1)
		}
		if ev.Interval <= 0 || ev.Estimate <= 0 {
			t.Errorf("progress %d missing estimate±CI: %+v", i, ev)
		}
	}
	// The last progress event and the result agree with a direct
	// engine run on a twin DB — the server added no execution path.
	twin := testDB(t)
	want, err := twin.EstimateSQL(testSQL, tcq.EstimateOptions{Quota: 5 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want.Value || res.Interval != want.Estimate.Interval || res.Stages != want.Estimate.Stages {
		t.Errorf("server result diverged from direct run:\nserver %+v\ndirect %+v", res, want.Estimate)
	}
	if last := progress[len(progress)-1]; last.Estimate != want.Value {
		t.Errorf("final progress estimate %v, want %v", last.Estimate, want.Value)
	}
}

func TestNonStreamingAndExact(t *testing.T) {
	db := testDB(t)
	_, cl, _ := startServer(t, db, Config{})

	res, err := cl.Query(context.Background(), wire.QueryRequest{SQL: testSQL, Quota: 5 * time.Second, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Event != "result" || res.Value <= 0 || res.Stages < 1 {
		t.Fatalf("non-streaming result wrong: %+v", res)
	}

	exact, err := cl.Query(context.Background(), wire.QueryRequest{SQL: testSQL, Exact: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Exact || exact.Value != 500 {
		t.Fatalf("exact result wrong: %+v", exact)
	}

	ra, err := cl.Query(context.Background(), wire.QueryRequest{
		RA: "select(orders, amount < 500)", Quota: 5 * time.Second, Seed: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Kind != "count" || ra.Estimate <= 0 {
		t.Fatalf("RA result wrong: %+v", ra)
	}
}

// N concurrent streaming clients must each get exactly the stream a
// serial replay of the same (seed, query) produces — per-query
// sessions make concurrency invisible — and per-tenant metric sums
// must account for every request.
func TestConcurrentClientsMatchSerialReplay(t *testing.T) {
	db := testDB(t)
	srv, cl, _ := startServer(t, db, Config{TenantWindow: time.Hour})

	const n = 24
	type outcome struct {
		res      *wire.Event
		progress []wire.Event
		err      error
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var prog []wire.Event
			res, err := cl.Query(context.Background(), wire.QueryRequest{
				Tenant: fmt.Sprintf("tenant%d", i%3),
				SQL:    testSQL,
				Quota:  5 * time.Second,
				Seed:   int64(i + 1),
				Stream: true,
			}, func(ev wire.Event) { prog = append(prog, ev) })
			results[i] = outcome{res, prog, err}
		}(i)
	}
	wg.Wait()

	// Serial replay on a twin DB: estimates must be bit-identical.
	twin := testDB(t)
	for i, got := range results {
		if got.err != nil {
			t.Fatalf("client %d: %v", i, got.err)
		}
		want, err := twin.EstimateSQL(testSQL, tcq.EstimateOptions{Quota: 5 * time.Second, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if got.res.Value != want.Value || got.res.Interval != want.Estimate.Interval ||
			got.res.Stages != want.Estimate.Stages || got.res.Blocks != want.Estimate.Blocks {
			t.Errorf("client %d diverged from serial replay:\nconcurrent %+v\nserial     %+v", i, got.res, want.Estimate)
		}
		if len(got.progress) != want.Estimate.Stages {
			t.Errorf("client %d: %d progress events, want %d (one per stage)", i, len(got.progress), want.Estimate.Stages)
		}
	}

	// Per-tenant sums: the three tenants split 24 requests 8/8/8, on
	// both the server registry and the engine's tenant counters.
	snap := srv.Registry().Snapshot()
	var total int64
	for i := 0; i < 3; i++ {
		k := trace.Key{Name: "server_requests", Label: trace.Label{Key: "tenant", Value: fmt.Sprintf("tenant%d", i)}}
		if got := snap.Labeled.Counters[k]; got != 8 {
			t.Errorf("%s = %d, want 8", k, got)
		}
		total += snap.Labeled.Counters[k]
	}
	if total != n {
		t.Errorf("per-tenant request sum %d, want %d", total, n)
	}
	dbSnap := db.Metrics()
	for i := 0; i < 3; i++ {
		k := trace.Key{Name: "tenant_queries", Label: trace.Label{Key: "tenant", Value: fmt.Sprintf("tenant%d", i)}}
		if got := dbSnap.Labeled.Counters[k]; got != 8 {
			t.Errorf("%s = %d, want 8", k, got)
		}
	}
	if got := snap.Counters["txns_admitted"]; got != n {
		t.Errorf("txns_admitted = %d, want %d", got, n)
	}
}

func TestRejectionMapping(t *testing.T) {
	db := testDB(t)
	srv, cl, _ := startServer(t, db, Config{
		MaxQuota: 10 * time.Second, TenantWindow: 8 * time.Second, Slack: 0.05,
	})
	ctx := context.Background()

	// Infeasible: quota beyond the server max → 422, not retryable.
	_, err := cl.Query(ctx, wire.QueryRequest{SQL: testSQL, Quota: time.Minute}, nil)
	se, ok := err.(*client.ServerError)
	if !ok || se.Status != http.StatusUnprocessableEntity || se.Reason != "infeasible" {
		t.Fatalf("over-max quota: %v, want 422 infeasible", err)
	}
	if se.Temporary() {
		t.Error("infeasible rejection reports Temporary")
	}

	// At capacity: fill the tenant window with an in-flight stream,
	// then an identical request must get 429 + Retry-After.
	gate := srv.gate("busy")
	release, err := gate.Admit(999, 6*time.Second, 8*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Query(ctx, wire.QueryRequest{Tenant: "busy", SQL: testSQL, Quota: 6 * time.Second}, nil)
	se, ok = err.(*client.ServerError)
	if !ok || se.Status != http.StatusTooManyRequests || se.Reason != "at-capacity" {
		t.Fatalf("at-capacity: %v, want 429", err)
	}
	if !se.Temporary() || se.RetryAfter <= 0 {
		t.Errorf("429 should be temporary with a retry hint: %+v", se)
	}
	release()
	// Capacity freed: the same request is admitted.
	if _, err := cl.Query(ctx, wire.QueryRequest{Tenant: "busy", SQL: testSQL, Quota: 6 * time.Second, Seed: 2}, nil); err != nil {
		t.Fatalf("after release: %v", err)
	}

	// Draining: every new query gets 503 closed.
	srv.Drain()
	_, err = cl.Query(ctx, wire.QueryRequest{SQL: testSQL, Quota: time.Second}, nil)
	se, ok = err.(*client.ServerError)
	if !ok || se.Status != http.StatusServiceUnavailable || se.Reason != "closed" {
		t.Fatalf("draining: %v, want 503 closed", err)
	}
	if h, err := cl.Health(ctx); err != nil || h.Status != "draining" {
		t.Errorf("healthz while draining = %+v, %v", h, err)
	}

	// Malformed requests are 400 bad-request.
	for _, bad := range []wire.QueryRequest{
		{},                              // neither sql nor ra
		{SQL: testSQL, RA: "select(r)"}, // both
		{SQL: testSQL, Strategy: "wat"}, // unknown strategy
		{SQL: "DELETE FROM orders"},     // unsupported statement
	} {
		_, err := cl.Query(ctx, bad, nil)
		if se, ok := err.(*client.ServerError); !ok ||
			(se.Status != http.StatusBadRequest && se.Status != http.StatusServiceUnavailable) {
			t.Errorf("bad request %+v: %v", bad, err)
		}
	}
}

// A drained server must finish in-flight streams before the listener
// closes: the acceptance criterion "zero dropped in-flight streams on
// drain". Uses a real clock so the query genuinely spans the drain.
func TestDrainFinishesInFlightStreams(t *testing.T) {
	db := testDB(t, tcq.WithRealClock(), tcq.WithTelemetry(16))
	srv, cl, rs := startServer(t, db, Config{})

	started := make(chan struct{})
	type done struct {
		res  *wire.Event
		prog int
		err  error
	}
	finished := make(chan done, 1)
	go func() {
		var prog int
		res, err := cl.Query(context.Background(), wire.QueryRequest{
			SQL: testSQL, Quota: 500 * time.Millisecond, Stream: true,
		}, func(wire.Event) {
			prog++
			select {
			case <-started:
			default:
				close(started)
			}
		})
		finished <- done{res, prog, err}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never started")
	}

	// Drain: admission closes first, then the HTTP server drains its
	// connections. The in-flight stream must complete normally.
	srv.Drain()
	sh, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.Shutdown(sh); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	d := <-finished
	if d.err != nil {
		t.Fatalf("in-flight stream dropped on drain: %v", d.err)
	}
	if d.res == nil || d.res.Event != "result" || d.prog < 1 {
		t.Fatalf("drained stream incomplete: %+v after %d progress events", d.res, d.prog)
	}
}

func TestSSEFraming(t *testing.T) {
	db := testDB(t)
	_, cl, _ := startServer(t, db, Config{})

	body, _ := json.Marshal(wire.QueryRequest{SQL: testSQL, Quota: 5 * time.Second, Seed: 5, Stream: true})
	req, err := http.NewRequest(http.MethodPost, cl.BaseURL+"/v1/query", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "data: ") {
			frames++
			var ev wire.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("bad SSE frame %q: %v", line, err)
			}
		}
	}
	if frames < 2 {
		t.Errorf("want >= 2 SSE frames (progress + result), got %d:\n%s", frames, raw)
	}
	if !strings.Contains(string(raw), `"event":"result"`) {
		t.Errorf("SSE stream missing result frame:\n%s", raw)
	}
}

func TestRelationsHealthAndTelemetryMounted(t *testing.T) {
	db := testDB(t)
	_, cl, _ := startServer(t, db, Config{})
	ctx := context.Background()

	rels, err := cl.Relations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].Name != "orders" || rels[0].Tuples != 5000 || rels[0].Blocks <= 0 {
		t.Fatalf("relations wrong: %+v", rels)
	}
	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %+v, %v", h, err)
	}

	// One query, then the telemetry surfaces must show it: per-tenant
	// series on /metrics, labeled history on /history?label=.
	if _, err := cl.Query(ctx, wire.QueryRequest{Tenant: "alice", SQL: testSQL, Quota: 5 * time.Second}, nil); err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get(cl.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		`tcq_server_requests_total{tenant="alice"} 1`,
		`tcq_tenant_queries_total{tenant="alice"} 1`,
		"tcq_txns_admitted_total 1",
		"tcq_queries_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	hist := get("/history?label=alice")
	if !strings.Contains(hist, `"label": "alice/req-`) {
		t.Errorf("/history?label=alice missing the tenant's query:\n%s", hist)
	}
}
