package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"tcq/internal/client"
	"tcq/internal/wire"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	o := newOutcome()
	o.pct("short", seq(999), 0.99, 1)
	if _, ok := o.metrics["short"]; ok || len(o.missing) != 1 {
		t.Fatalf("unsupported p99 was reported: %v, missing %v", o.metrics, o.missing)
	}
}

// A stub server that stalls its first request: on one connection every
// request due during the stall waits behind it, and timing from the due
// time must show that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		enc := json.NewEncoder(w)
		enc.Encode(wire.Event{Event: "result", Kind: "count", Estimate: 1, Stages: 1}) //nolint:errcheck
		enc.Encode(wire.Event{Event: "spans", Wall: time.Microsecond})                 //nolint:errcheck
	}))
	defer srv.Close()
	cl := client.New(srv.URL, "")
	cl.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer cl.HTTP.CloseIdleConnections()

	st := openLoop(cl, 1, 0, 100, time.Second)
	if len(st.reqs) != 100 {
		t.Fatalf("sent %d requests, want 100", len(st.reqs))
	}
	for k, r := range st.reqs {
		if r.err != nil {
			t.Fatalf("request %d: %v", k, r.err)
		}
	}
	// Request 10 was due 100 ms in and could not start before the stall
	// ended 300 ms in.
	if got := st.reqs[10].latency; got < 150*time.Millisecond {
		t.Errorf("request due during the stall took %v from its due time, want >= 150ms", got)
	}
	if got := st.reqs[90].latency; got > 100*time.Millisecond {
		t.Errorf("request due after the stall took %v, want the stall drained", got)
	}
	if st.meets() {
		t.Errorf("a step with a %v stall met the %d ms limit", stall, limitMS)
	}
}

// The twin check's sample holds streamed and plain responses of every
// catalog-bypassing shape, so both response paths are compared bit for
// bit.
func TestTwinSampleCoversBothResponseKinds(t *testing.T) {
	type key struct {
		shape  string
		stream bool
	}
	seen := map[key]bool{}
	for i := 0; i < 8*len(serveShapes)*2; i++ {
		sh, req := request(1, i)
		if sh.warm || !twinPick(i) {
			continue
		}
		if req.Stream != streamed(i) {
			t.Fatalf("request %d: Stream %v, streamed(%d) %v", i, req.Stream, i, streamed(i))
		}
		seen[key{sh.name, req.Stream}] = true
	}
	for _, sh := range serveShapes {
		if sh.warm {
			continue
		}
		for _, stream := range []bool{true, false} {
			if !seen[key{sh.name, stream}] {
				t.Errorf("twin sample lacks %s with Stream=%v", sh.name, stream)
			}
		}
	}
}

// The metric lists in the code are the ones BENCHMARK.json declares, and
// every name is well formed.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q declared twice", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, code %d", len(got), kind, len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %v, code %v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// An answer without a completed stage lowers ok_share but is not a
// failed operation; an error is both.
func TestUnansweredIsNotFailed(t *testing.T) {
	o := newOutcome()
	var s opStats
	s.attempted = 4
	s.answer(o, "a", 10, 1, 10, 2, false)
	s.answer(o, "b", 0, 0, 10, 0, false)
	s.answer(o, "c", 9, 2, 10, 1, false)
	s.failed++ // an error
	s.reportQuality(o)
	if o.failed != 1 || len(o.mismatches) != 0 {
		t.Errorf("failed = %d, mismatches %v; want 1, none", o.failed, o.mismatches)
	}
	if got := o.metrics["ok_share"]; got != 0.5 {
		t.Errorf("ok_share = %v, want 0.5", got)
	}
}

// A short run of every workload, untraced and traced, passes its
// correctness checks.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := w.run(runConfig{seed: 7, seconds: 300 * time.Millisecond, trace: traced})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if len(o.mismatches) > 0 {
				t.Errorf("%s (trace %v): correctness checks failed: %v", w.name, traced, o.mismatches)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s (trace %v): %d operations attempted, %d failed; want some, none failed", w.name, traced, o.attempted, o.failed)
			}
			if traced && o.metrics["replay.mismatches"] != 0 {
				t.Errorf("%s: %v replayed operations did not match the engine", w.name, o.metrics["replay.mismatches"])
			}
		}
	}
}
