// Command tcqload drives concurrent load at a tcqd server and reports
// latency histograms through the engine's metrics registry. By
// default it spins up an in-process loopback tcqd over generated data
// (so the whole harness is self-contained); -addr points it at an
// external server instead.
//
//	$ tcqload -clients 10000 -quota 200ms -drain 500ms
//	tcqload: serving loopback tcqd on 127.0.0.1:41833 (r: 100000 tuples)
//	tcqload: 10000 clients x 1 requests, 8 tenants, quota 200ms, streaming
//	tcqload: draining server 500ms after start
//	tcqload: completed 9631, rejected 369 (at-capacity 121, closed 248), dropped 0, errors 0, misses 0
//	tcqload: latency p50 1.8ms p95 6.2ms p99 11ms max 40ms
//	tcqload: span breakdown (9631 requests with spans)
//	tcqload:   span        count     p50     p95
//	tcqload:   admission_wait 9631    10µs    80µs
//	...
//
// Every client goroutine runs its requests through internal/client;
// wall-clock latencies are committed to a trace.Registry histogram
// (the in-process server's own registry, so they render on /metrics),
// and each response's terminal spans event feeds per-span histograms
// (load_span_seconds{span=...}) plus the end-of-run breakdown table.
// A request whose stream started but ended without a result event
// counts as "dropped" — the drain-correctness failure mode — and a
// non-zero dropped or error count makes the process exit 1; -max-miss
// additionally gates on errors + deadline misses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tcq"
	"tcq/internal/client"
	"tcq/internal/server"
	"tcq/internal/trace"
	"tcq/internal/wire"
	"tcq/internal/workload"
)

const latencyMetric = "load_latency_seconds"

// spanMetric is the per-span latency family: one labeled histogram
// series per span name ("load_span_seconds|span=eval", ...).
const spanMetric = "load_span_seconds"

func main() {
	addr := flag.String("addr", "", "target tcqd address; empty starts an in-process loopback server")
	clients := flag.Int("clients", 100, "concurrent client goroutines")
	requests := flag.Int("requests", 1, "requests per client")
	tenants := flag.Int("tenants", 8, "number of distinct tenants to spread clients across")
	quota := flag.Duration("quota", 200*time.Millisecond, "per-query time quota")
	ra := flag.String("ra", "select(r, a < 10000)", "RA query each client runs")
	stream := flag.Bool("stream", true, "request progressive per-stage streams")
	conns := flag.Int("conns", 4096, "client-side connection cap (http.Transport MaxConnsPerHost)")
	drain := flag.Duration("drain", 0, "drain the in-process server this long after load starts (0 = no drain; loopback mode only)")
	window := flag.Duration("window", 60*time.Second, "loopback server per-tenant admission window")
	genN := flag.Int("gen-n", 100000, "loopback relation size (tuples)")
	genK := flag.Int("gen-k", 10000, "loopback relation qualifying tuples")
	seed := flag.Int64("seed", 1, "base seed (server clock, data generation, per-request sampling)")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall run deadline")
	maxMiss := flag.Int("max-miss", -1, "fail (exit 1) when errors + deadline misses exceed this count (negative = no gate)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// Latency histograms land in the server's own registry when
	// loopback (so /metrics shows them); a local one otherwise.
	reg := trace.NewRegistry()
	var srv *server.Server
	var rs *tcq.TelemetryServer
	target := *addr
	if target == "" {
		db := tcq.Open(tcq.WithSimulatedClock(*seed), tcq.WithLoadNoise(0.12), tcq.WithTelemetry(64))
		rng := rand.New(rand.NewSource(*seed))
		if _, err := workload.SelectRelation(db.Store(), "r", *genN, *genK, rng); err != nil {
			fatal(err)
		}
		srv = server.New(server.Config{DB: db, TenantWindow: *window})
		var err error
		rs, target, err = srv.Start(context.Background(), "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer rs.Close()
		reg = srv.Registry()
		fmt.Printf("tcqload: serving loopback tcqd on %s (r: %d tuples)\n", target, *genN)
	} else if *drain > 0 {
		fatal(errors.New("-drain needs the in-process loopback server (omit -addr)"))
	}

	mode := "streaming"
	if !*stream {
		mode = "non-streaming"
	}
	fmt.Printf("tcqload: %d clients x %d requests, %d tenants, quota %v, %s\n",
		*clients, *requests, *tenants, *quota, mode)

	// One shared transport: loopback costs 2 fds per connection in one
	// process, so 10k concurrent clients must multiplex over a capped
	// connection pool to stay inside the fd limit.
	httpClient := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     *conns,
		MaxIdleConns:        *conns,
		MaxIdleConnsPerHost: *conns,
	}}

	var (
		mu           sync.Mutex
		latencies    []time.Duration
		spanDur      = map[string][]time.Duration{}
		completed    int
		misses       int
		dropped      int
		failures     int
		refused      int
		rejects      = map[string]int{}
		drainStarted atomic.Bool
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := client.New(target, fmt.Sprintf("t%d", i%*tenants))
			cl.HTTP = httpClient
			<-start
			for r := 0; r < *requests; r++ {
				req := wire.QueryRequest{
					RA:     *ra,
					Quota:  *quota,
					Seed:   *seed + int64(i**requests+r),
					Stream: *stream,
				}
				progressed := false
				t0 := time.Now()
				ev, err := cl.Query(ctx, req, func(wire.Event) { progressed = true })
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err == nil:
					completed++
					latencies = append(latencies, lat)
					// A miss is the server's own SLO rule: engine overspend
					// or wire-to-wire wall past the quota.
					if ev.Overspent || ev.Wall > *quota {
						misses++
					}
					// Fold the terminal spans event into per-span samples
					// (eval stages sum into one eval sample per request).
					perSpan := map[string]time.Duration{}
					for _, sp := range ev.Spans {
						perSpan[sp.Name] += sp.Dur
					}
					for name, d := range perSpan {
						spanDur[name] = append(spanDur[name], d)
					}
				case progressed:
					// The server accepted the stream but it ended without
					// a result: an in-flight stream was dropped.
					dropped++
				default:
					var se *client.ServerError
					switch {
					case errors.As(err, &se):
						rejects[se.Reason]++
					case drainStarted.Load():
						// Connection-level failure after the drain began:
						// the listener is gone, equivalent to a "closed"
						// rejection, not a dropped stream.
						refused++
					default:
						failures++
					}
				}
				mu.Unlock()
				if err == nil {
					reg.Observe(latencyMetric, lat.Seconds())
					for _, sp := range ev.Spans {
						reg.Observe(spanMetric, sp.Dur.Seconds(), trace.Label{Key: "span", Value: sp.Name})
					}
				}
			}
		}(i)
	}
	close(start)

	if *drain > 0 {
		// Exercise graceful shutdown under load: stop admission, wait
		// for in-flight reservations, then drain HTTP connections.
		// Every already-started stream must still deliver its result.
		fmt.Printf("tcqload: draining server %v after start\n", *drain)
		time.Sleep(*drain)
		drainStarted.Store(true)
		srv.Drain()
		sh, shCancel := context.WithTimeout(context.Background(), time.Minute)
		if err := rs.Shutdown(sh); err != nil {
			shCancel()
			fatal(fmt.Errorf("drain shutdown: %w", err))
		}
		shCancel()
	}
	wg.Wait()

	rejected := 0
	for _, n := range rejects {
		rejected += n
	}
	reasons := make([]string, 0, len(rejects))
	for r := range rejects {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	detail := ""
	for i, r := range reasons {
		if i > 0 {
			detail += ", "
		}
		detail += fmt.Sprintf("%s %d", r, rejects[r])
	}
	if detail != "" {
		detail = " (" + detail + ")"
	}
	fmt.Printf("tcqload: completed %d, rejected %d%s, refused-after-drain %d, dropped %d, errors %d, misses %d\n",
		completed, rejected, detail, refused, dropped, failures, misses)

	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pick := func(q float64) time.Duration {
			i := int(q * float64(len(latencies)-1))
			return latencies[i]
		}
		fmt.Printf("tcqload: latency p50 %v p95 %v p99 %v max %v\n",
			pick(0.50).Round(100*time.Microsecond), pick(0.95).Round(100*time.Microsecond),
			pick(0.99).Round(100*time.Microsecond), latencies[len(latencies)-1].Round(100*time.Microsecond))
	}
	if h, ok := reg.Snapshot().Histograms[latencyMetric]; ok {
		fmt.Printf("tcqload: histogram %s: count=%d mean=%.4fs min=%.4fs max=%.4fs\n",
			latencyMetric, h.Count, h.Mean, h.Min, h.Max)
		for _, b := range h.Buckets {
			fmt.Printf("tcqload:   %-12s %d\n", fmt.Sprintf("le_%g", b.Le()), b.Count)
		}
	}
	// Span breakdown: where each request's wall time went, aggregated
	// across completed requests. Rows sort by span name so the table is
	// deterministic for any fixed workload shape.
	if len(spanDur) > 0 {
		names := make([]string, 0, len(spanDur))
		for name := range spanDur {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("tcqload: span breakdown (%d requests with spans)\n", completed)
		fmt.Printf("tcqload:   %-16s %8s %12s %12s\n", "span", "count", "p50", "p95")
		for _, name := range names {
			ds := spanDur[name]
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			pick := func(q float64) time.Duration { return ds[int(q*float64(len(ds)-1))] }
			fmt.Printf("tcqload:   %-16s %8d %12v %12v\n",
				name, len(ds), pick(0.50).Round(10*time.Microsecond), pick(0.95).Round(10*time.Microsecond))
		}
	}
	if dropped > 0 || failures > 0 {
		fmt.Fprintf(os.Stderr, "tcqload: FAIL: %d dropped in-flight streams, %d transport errors\n", dropped, failures)
		os.Exit(1)
	}
	if *maxMiss >= 0 && failures+misses > *maxMiss {
		fmt.Fprintf(os.Stderr, "tcqload: FAIL: %d errors + %d deadline misses exceed -max-miss %d\n", failures, misses, *maxMiss)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tcqload: %v\n", err)
	os.Exit(1)
}
