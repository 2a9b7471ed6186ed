// Hostile-input coverage of the tcqd front door: tenant strings that
// look like label syntax must stay single escaped labels on /metrics,
// and no POST /v1/query body — malformed, oversized, contradictory or
// out of range — may panic the handler, answer with anything but 200
// or a typed 4xx, or leave /metrics invalid.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcq"
	"tcq/internal/wire"
)

// scrapeMetrics renders /metrics through the handler.
func scrapeMetrics(t testing.TB, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// checkExposition validates body against the Prometheus text format:
// every non-comment line is name{label="value",...} value, label
// values use only the \\, \" and \n escapes, no label name repeats
// within a line, and the value parses as a float.
func checkExposition(t testing.TB, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if err := parseSample(line); err != nil {
			t.Errorf("invalid exposition line %q: %v", line, err)
		}
	}
}

// parseSample parses one exposition sample line.
func parseSample(line string) error {
	isName := func(c byte, first bool) bool {
		return c == '_' || c == ':' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || !first && c >= '0' && c <= '9'
	}
	i := 0
	for i < len(line) && isName(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("no metric name")
	}
	if i < len(line) && line[i] == '{' {
		seen := map[string]bool{}
		i++
		for {
			start := i
			for i < len(line) && isName(line[i], i == start) && line[i] != ':' {
				i++
			}
			name := line[start:i]
			if name == "" || !strings.HasPrefix(line[i:], `="`) {
				return fmt.Errorf("bad label at byte %d", start)
			}
			if seen[name] {
				return fmt.Errorf("duplicate label %q", name)
			}
			seen[name] = true
			for i += 2; ; i++ {
				if i >= len(line) || line[i] == '\n' {
					return fmt.Errorf("unterminated value of label %q", name)
				}
				if line[i] == '"' {
					break
				}
				if line[i] == '\\' {
					if i+1 >= len(line) || !strings.ContainsRune(`\"n`, rune(line[i+1])) {
						return fmt.Errorf("bad escape in label %q", name)
					}
					i++
				}
			}
			i++
			if i < len(line) && line[i] == ',' {
				i++
				continue
			}
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			return fmt.Errorf("bad label set at byte %d", i)
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return fmt.Errorf("no value")
	}
	_, err := strconv.ParseFloat(line[i+1:], 64)
	return err
}

// TestMetricsTenantLabelInjection: tenants carrying label syntax (a
// comma, '=', a second le, quotes and backslashes) each render as one
// escaped tenant label, with exactly one le per bucket line
// (checkExposition rejects repeated label names); an ordinary tenant
// renders as it always has.
func TestMetricsTenantLabelInjection(t *testing.T) {
	srv, cl, _ := startServer(t, testDB(t), Config{})
	tenants := []string{"a,evil=1", "b,le=9", `x"y\z`, "alice"}
	for _, tenant := range tenants {
		if _, err := cl.Query(context.Background(), wire.QueryRequest{
			Tenant: tenant, SQL: testSQL, Quota: time.Second, Seed: 1,
		}, nil); err != nil {
			t.Fatalf("tenant %q: %v", tenant, err)
		}
	}
	body := scrapeMetrics(t, srv.Handler())
	checkExposition(t, body)
	for _, want := range []string{
		`tcq_server_requests_total{tenant="a,evil=1"} 1`,
		`tcq_server_requests_total{tenant="b,le=9"} 1`,
		`tcq_server_requests_total{tenant="x\"y\\z"} 1`,
		`tcq_server_requests_total{tenant="alice"} 1`,
		`tcq_tenant_queries_total{tenant="alice"} 1`,
		// admission_wait_seconds is observed before the response is
		// written (request_seconds only after it), so a scrape right
		// after the last reply sees every request.
		`tcq_admission_wait_seconds_bucket{tenant="b,le=9",le="+Inf"} 1`,
		`tcq_admission_wait_seconds_count{tenant="x\"y\\z"} 1`,
		`tcq_admission_wait_seconds_count{tenant="alice"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// checkExposition rejects a repeated le; an injected label would be
	// well-formed, so look for it by name.
	if strings.Contains(body, `evil="`) {
		t.Errorf("a tenant value injected a label:\n%s", body)
	}
}

// FuzzQueryHandler drives POST /v1/query with arbitrary bodies. The
// seed corpus — malformed and oversized JSON, both or neither of
// sql/ra, an unknown strategy, zero, negative and huge quotas,
// out-of-range knobs and hostile tenants — runs as an ordinary test;
// `go test -fuzz FuzzQueryHandler ./internal/server` explores further.
func FuzzQueryHandler(f *testing.F) {
	const ra = `"ra":"select(orders, amount < 500)"`
	for _, s := range []string{
		``, `{`, `not json`, `[]`, `""`, `null`, `{"sql":1}`, `{"quota_ns":"1s"}`,
		`{"tenant":"` + strings.Repeat("a", 1<<20) + `",` + ra + `}`,
		`{}`,
		`{"sql":"SELECT COUNT(*) FROM orders",` + ra + `}`,
		`{` + ra + `,"strategy":"bogus"}`,
		`{` + ra + `,"strategy":"heuristic","quota_ns":1000000000}`,
		`{` + ra + `,"quota_ns":0}`,
		`{` + ra + `,"quota_ns":-5}`,
		`{` + ra + `,"quota_ns":1}`,
		`{` + ra + `,"quota_ns":9223372036854775807}`,
		`{` + ra + `,"quota_ns":9223372036854775807,"exact":true}`,
		`{` + ra + `,"exact":true}`,
		`{"sql":"SELECT COUNT(*) FROM orders GROUP BY amount","exact":true}`,
		`{` + ra + `,"stream":true,"hard_deadline":true,"quota_ns":500000000}`,
		`{` + ra + `,"confidence":2,"dbeta":-1,"target_rel_error":-1,"parallel":-3}`,
		`{"sql":"SELECT FROM","stream":true}`,
		`{"ra":"select(","stream":true}`,
		`{"ra":"select(nosuch, a < 1)"}`,
		`{"tenant":"a,evil=1",` + ra + `}`,
		`{"tenant":"b,le=9",` + ra + `}`,
		`{"tenant":"x\"y\\z",` + ra + `}`,
		`{"tenant":"line\nbreak\u0000nul|pipe=eq",` + ra + `}`,
		`{"tenant":"\ud800 lone surrogate \u00e9",` + ra + `}`,
		`{"tenant":"` + strings.Repeat("t", 10000) + `",` + ra + `}`,
	} {
		f.Add(s)
	}
	db := testDB(f, tcq.WithSimulatedClock(1), tcq.WithTelemetry(64), tcq.WithCalibration(64))
	srv := New(Config{DB: db, MaxQuota: 2 * time.Second, TenantWindow: 4 * time.Second})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			var er wire.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Reason == "" || er.RequestID == "" {
				t.Fatalf("status %d without a typed error payload: %q (%v)", rec.Code, rec.Body.String(), err)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, truncateLabel(body, 200), rec.Body.String())
		}
		checkExposition(t, scrapeMetrics(t, h))
	})
}
