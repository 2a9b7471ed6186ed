// Command tcqsh is an interactive shell for the tcq time-constrained
// query processor. It speaks the textual RA syntax and runs both exact
// and time-constrained COUNT queries against a simulated machine.
//
//	$ tcqsh
//	tcq> gen select r 10000 1000
//	tcq> count select(r, a < 1000)
//	exact: 1000
//	tcq> estimate 10s select(r, a < 1000)
//	estimate: 1012.5 ± 161.2 (95%), 3 stages, 97 blocks, spent 9.61s, util 96%
//	tcq> quit
//
// Commands:
//
//	gen select|intersect|join|project NAME [NAME2] N OUT   generate data
//	load NAME FILE                                         load a .tcq file (in memory)
//	open NAME FILE                                         attach a .tcq file (on demand)
//	save NAME FILE                                         save a relation
//	rels                                                   list relations
//	explain EXPR                                           show the evaluation plan
//	count EXPR                                             exact COUNT
//	sum COL EXPR / avg COL EXPR                            exact SUM / AVG
//	estimate DUR EXPR                                      time-constrained COUNT
//	estsum DUR COL EXPR / estavg DUR COL EXPR              time-constrained SUM / AVG
//	sql SELECT ...                                         exact SQL aggregate
//	estsql DUR SELECT ...                                  time-constrained SQL aggregate
//	analyze [BUCKETS]                                      build equi-depth statistics
//	set dbeta|strategy|seed|stats VALUE                    session settings
//	\trace on|off                                          per-stage trace lines for estimates
//	\timing on|off                                         stages/elapsed in result lines (on by default)
//	\parallel N                                            term-evaluation workers (0 = auto; results are identical)
//	\metrics                                               session-wide metrics snapshot
//	\watch [DUR EXPR]                                      in-flight queries; with args, estimate with live progress
//	\history                                               completed queries + per-shape stats
//	\calib                                                 calibration report (coverage, drift, flight recorder)
//	\catalog [build [NAME COL] | invalidate [NAME...]]     sample-catalog status / build / invalidate
//	\flightrec                                             flight-recorded anomalous queries
//	\connect ADDR [TENANT]                                 route queries to a tcqd server
//	\disconnect                                            back to the local session
//	help, quit
//
// While connected, count/sum-style exact queries, estimates and SQL
// run on the server under the chosen tenant (estimates stream
// per-stage progress lines when \trace is on); data-generation and
// session commands stay local.
//
// With -serve ADDR the session also exports live telemetry over HTTP
// (/metrics, /queries, /history, /calibration, /debug/flightrecorder);
// Ctrl-C drains the listener before exiting.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcq"
	"tcq/internal/calib"
	"tcq/internal/client"
	"tcq/internal/trace"
	"tcq/internal/wire"
	"tcq/internal/workload"
)

type session struct {
	db       *tcq.DB
	dBeta    float64
	strategy tcq.StrategyKind
	seed     int64
	useStats bool
	analyzed bool
	// timing appends stages/elapsed to estimate result lines (default
	// on; `\timing off` keeps scripted output golden-stable).
	timing bool
	// traceOn streams a per-stage trace line for every estimate.
	traceOn bool
	// parallelism is the term-evaluation worker count passed to
	// estimates (0 = auto, negative = serial; the choice never changes
	// results, only wall time).
	parallelism int
	// remote, when set by \connect, routes query commands (count, sql,
	// estimate, estsum, estavg, estsql, rels) to a tcqd server; data
	// and session commands stay local.
	remote *client.Client
	out    *bufio.Writer
}

// newSession builds a shell session writing to out.
func newSession(out io.Writer) *session {
	return &session{
		db:     tcq.Open(tcq.WithSimulatedClock(1), tcq.WithLoadNoise(0.12), tcq.WithTelemetry(64), tcq.WithCalibration(64), tcq.WithCatalog()),
		dBeta:  12,
		seed:   1,
		timing: true,
		out:    bufio.NewWriter(out),
	}
}

func main() {
	serve := flag.String("serve", "", "serve live telemetry (/metrics, /queries, /history, /calibration, pprof) on this address, e.g. :9100")
	flag.Parse()
	s := newSession(os.Stdout)
	if *serve != "" {
		// Ctrl-C (or SIGTERM) gracefully drains the telemetry listener
		// and flushes pending shell output before exiting.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		srv, addr, err := s.db.ServeTelemetry(ctx, *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcqsh:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(s.out, "telemetry: http://%s/ (metrics, queries, history, calibration, pprof)\n", addr)
		go func() {
			<-ctx.Done()
			sh, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			srv.Shutdown(sh)
			cancel()
			s.out.Flush()
			os.Exit(0)
		}()
	}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	interactive := isTerminalish()
	for {
		if interactive {
			fmt.Fprint(s.out, "tcq> ")
		}
		s.out.Flush()
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			break
		}
		if err := s.dispatch(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
	s.out.Flush()
}

func isTerminalish() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func (s *session) dispatch(line string) error {
	cmd, rest := splitWord(line)
	switch cmd {
	case "help":
		fmt.Fprintln(s.out, `commands: gen, load, open, save, rels, explain, count, sum, avg, estimate, estsum, estavg, sql, estsql, analyze, set, \trace, \metrics, \timing, \parallel, \watch, \history, \calib, \catalog, \flightrec, \connect, \disconnect, help, quit`)
		return nil
	case `\connect`:
		addr, tenant := splitWord(rest)
		if addr == "" {
			return fmt.Errorf(`usage: \connect ADDR [TENANT]`)
		}
		tenant = strings.TrimSpace(tenant)
		if tenant == "" {
			tenant = "default"
		}
		c := client.New(addr, tenant)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		h, err := c.Health(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("connect %s: %v", c.BaseURL, err)
		}
		s.remote = c
		fmt.Fprintf(s.out, "connected (tenant %s, status %s)\n", tenant, h.Status)
		return nil
	case `\disconnect`:
		if s.remote == nil {
			return fmt.Errorf("not connected")
		}
		s.remote = nil
		fmt.Fprintln(s.out, "disconnected")
		return nil
	case `\calib`:
		fmt.Fprint(s.out, calib.RenderReport(s.db.Calibration()))
		return nil
	case `\catalog`:
		return s.catalogCmd(rest)
	case `\flightrec`:
		return s.printFlightRecords()
	case `\parallel`:
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			return fmt.Errorf(`usage: \parallel N (0 = auto, negative = serial)`)
		}
		s.parallelism = n
		fmt.Fprintf(s.out, "parallel %d\n", n)
		return nil
	case `\trace`:
		switch strings.TrimSpace(rest) {
		case "on":
			s.traceOn = true
		case "off":
			s.traceOn = false
		default:
			return fmt.Errorf(`usage: \trace on|off`)
		}
		fmt.Fprintf(s.out, "trace %s\n", strings.TrimSpace(rest))
		return nil
	case `\timing`:
		switch strings.TrimSpace(rest) {
		case "on":
			s.timing = true
		case "off":
			s.timing = false
		default:
			return fmt.Errorf(`usage: \timing on|off`)
		}
		fmt.Fprintf(s.out, "timing %s\n", strings.TrimSpace(rest))
		return nil
	case `\metrics`:
		fmt.Fprint(s.out, s.db.Metrics().String())
		return nil
	case `\watch`:
		if strings.TrimSpace(rest) == "" {
			return s.watchInFlight()
		}
		return s.watchEstimate(rest)
	case `\history`:
		return s.printHistory()
	case "rels":
		if s.remote != nil {
			rels, err := s.remote.Relations(context.Background())
			if err != nil {
				return err
			}
			if len(rels) == 0 {
				fmt.Fprintln(s.out, "(no relations)")
				return nil
			}
			for _, r := range rels {
				fmt.Fprintf(s.out, "%-12s %7d tuples %6d blocks\n", r.Name, r.Tuples, r.Blocks)
			}
			return nil
		}
		names := s.db.Relations()
		if len(names) == 0 {
			fmt.Fprintln(s.out, "(no relations)")
			return nil
		}
		for _, n := range names {
			rel, err := s.db.Relation(n)
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "%-12s %7d tuples %6d blocks\n", n, rel.NumTuples(), rel.NumBlocks())
		}
		return nil
	case "gen":
		return s.gen(rest)
	case "load", "open":
		name, file := splitWord(rest)
		if name == "" || file == "" {
			return fmt.Errorf("usage: %s NAME FILE", cmd)
		}
		var rel *tcq.Relation
		var err error
		if cmd == "open" {
			rel, err = s.db.OpenRelationFile(name, strings.TrimSpace(file))
		} else {
			rel, err = s.db.LoadRelationFile(name, strings.TrimSpace(file))
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "%sed %s: %d tuples, %d blocks\n", cmd, name, rel.NumTuples(), rel.NumBlocks())
		return nil
	case "save":
		name, file := splitWord(rest)
		if name == "" || file == "" {
			return fmt.Errorf("usage: save NAME FILE")
		}
		rel, err := s.db.Relation(name)
		if err != nil {
			return err
		}
		return rel.SaveFile(strings.TrimSpace(file))
	case "sql":
		if s.remote != nil {
			ev, err := s.remoteQuery(wire.QueryRequest{SQL: rest, Exact: true})
			if err != nil {
				return err
			}
			s.printWireSQL(ev)
			s.printWireSpans(ev)
			return nil
		}
		res, err := s.db.ExecSQL(rest)
		if err != nil {
			return err
		}
		s.printSQL(res)
		return nil
	case "estsql":
		durStr, stmt := splitWord(rest)
		quota, err := time.ParseDuration(durStr)
		if err != nil {
			return fmt.Errorf("usage: estsql DURATION SELECT ... (%v)", err)
		}
		if s.remote != nil {
			ev, err := s.remoteQuery(wire.QueryRequest{SQL: stmt, Quota: quota})
			if err != nil {
				return err
			}
			s.printWireSQL(ev)
			s.printWireSpans(ev)
			s.seed++
			return nil
		}
		res, err := s.db.EstimateSQL(stmt, s.estimateOptions(quota))
		if err != nil {
			return err
		}
		s.printSQL(res)
		s.seed++
		return nil
	case "explain":
		q, err := tcq.Parse(rest)
		if err != nil {
			return err
		}
		plan, err := s.db.Explain(q)
		if err != nil {
			return err
		}
		fmt.Fprint(s.out, plan)
		return nil
	case "count":
		if s.remote != nil {
			ev, err := s.remoteQuery(wire.QueryRequest{RA: rest, Exact: true})
			if err != nil {
				return err
			}
			fmt.Fprintf(s.out, "exact: %d\n", int64(ev.Value))
			s.printWireSpans(ev)
			return nil
		}
		q, err := tcq.Parse(rest)
		if err != nil {
			return err
		}
		n, err := s.db.Count(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "exact: %d\n", n)
		return nil
	case "sum", "avg":
		col, exprStr := splitWord(rest)
		if col == "" || exprStr == "" {
			return fmt.Errorf("usage: %s COL EXPR", cmd)
		}
		q, err := tcq.Parse(exprStr)
		if err != nil {
			return err
		}
		var v float64
		if cmd == "sum" {
			v, err = s.db.Sum(q, col)
		} else {
			v, err = s.db.Avg(q, col)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "exact %s(%s): %g\n", cmd, col, v)
		return nil
	case "analyze":
		buckets := 32
		if w, _ := splitWord(rest); w != "" {
			b, err := strconv.Atoi(w)
			if err != nil {
				return err
			}
			buckets = b
		}
		if err := s.db.BuildStatistics(buckets); err != nil {
			return err
		}
		s.analyzed = true
		fmt.Fprintf(s.out, "built equi-depth statistics (%d buckets per column)\n", buckets)
		return nil
	case "estsum", "estavg":
		durStr, rest2 := splitWord(rest)
		col, exprStr := splitWord(rest2)
		quota, err := time.ParseDuration(durStr)
		if err != nil || col == "" || exprStr == "" {
			return fmt.Errorf("usage: %s DURATION COL EXPR", cmd)
		}
		q, err := tcq.Parse(exprStr)
		if err != nil {
			return err
		}
		opts := s.estimateOptions(quota)
		var est *tcq.Estimate
		if cmd == "estsum" {
			est, err = s.db.SumEstimate(q, col, opts)
		} else {
			est, err = s.db.AvgEstimate(q, col, opts)
		}
		if err != nil {
			return err
		}
		s.printEstimate(est)
		s.seed++
		return nil
	case "estimate":
		durStr, exprStr := splitWord(rest)
		quota, err := time.ParseDuration(durStr)
		if err != nil {
			return fmt.Errorf("usage: estimate DURATION EXPR (%v)", err)
		}
		if s.remote != nil {
			ev, err := s.remoteQuery(wire.QueryRequest{RA: exprStr, Quota: quota})
			if err != nil {
				return err
			}
			s.printWireEstimate(ev)
			s.printWireSpans(ev)
			s.seed++
			return nil
		}
		q, err := tcq.Parse(exprStr)
		if err != nil {
			return err
		}
		est, err := s.db.CountEstimate(q, s.estimateOptions(quota))
		if err != nil {
			return err
		}
		s.printEstimate(est)
		s.seed++ // fresh sample next time
		return nil
	case "set":
		key, val := splitWord(rest)
		switch key {
		case "dbeta":
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return err
			}
			s.dBeta = v
		case "seed":
			v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return err
			}
			s.seed = v
		case "strategy":
			k, err := tcq.ParseStrategy(strings.TrimSpace(val))
			if err != nil {
				return fmt.Errorf("strategies: one-at-a-time, single-interval, heuristic")
			}
			s.strategy = k
		case "stats":
			switch strings.TrimSpace(val) {
			case "on":
				if !s.analyzed {
					return fmt.Errorf("run 'analyze' first")
				}
				s.useStats = true
			case "off":
				s.useStats = false
			default:
				return fmt.Errorf("usage: set stats on|off")
			}
		default:
			return fmt.Errorf("settable: dbeta, seed, strategy, stats")
		}
		fmt.Fprintf(s.out, "set %s = %s\n", key, strings.TrimSpace(val))
		return nil
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// watchInFlight renders the queries currently evaluating. When
// \connect'ed it asks the server's /queries endpoint for the tenant's
// in-flight queries (the same registry the telemetry server scrapes);
// locally it reads the session DB's registry, which in the serial
// shell is normally empty unless other goroutines share the DB.
func (s *session) watchInFlight() error {
	inflight := s.db.InFlight()
	if s.remote != nil {
		// Tenant scopes label queries "tenant/req-N"; the prefix filter
		// selects this connection's tenant.
		qs, err := s.remote.Queries(context.Background(), s.remote.Tenant+"/")
		if err != nil {
			return err
		}
		inflight = qs
	}
	if len(inflight) == 0 {
		fmt.Fprintln(s.out, "(no queries in flight)")
		return nil
	}
	for _, p := range inflight {
		fmt.Fprintf(s.out, "q%-3d stage %-2d est %.1f ± %.1f, spent %.0f%%, %d blocks  %s",
			p.ID, p.Stages, p.Estimate, p.Interval, p.SpentFrac*100, p.Blocks, p.Query)
		if s.remote != nil && p.Label != "" {
			fmt.Fprintf(s.out, "  [%s]", p.Label)
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

// watchEstimate runs `\watch DUR EXPR`: a time-constrained COUNT that
// renders one live progress line per completed stage, pushed by a
// progress Stream on the tracer chain (the same records /queries
// serves).
func (s *session) watchEstimate(rest string) error {
	durStr, exprStr := splitWord(rest)
	quota, err := time.ParseDuration(durStr)
	if err != nil || exprStr == "" {
		return fmt.Errorf(`usage: \watch DURATION EXPR`)
	}
	q, err := tcq.Parse(exprStr)
	if err != nil {
		return err
	}
	opts := s.estimateOptions(quota)
	opts.Tracer = trace.Combine(opts.Tracer, tcq.NewStream("", func(p tcq.QueryProgress, done bool) {
		if done {
			return
		}
		var rels strings.Builder
		for _, r := range p.Relations {
			fmt.Fprintf(&rels, ", %s %.1f%%", r.Relation, r.Coverage*100)
		}
		fmt.Fprintf(s.out, "stage %d: est %.1f ± %.1f, spent %.0f%%, %d blocks%s\n",
			p.Stages, p.Estimate, p.Interval, p.SpentFrac*100, p.Blocks, rels.String())
	}))
	est, err := s.db.CountEstimate(q, opts)
	if err != nil {
		return err
	}
	s.printEstimate(est)
	s.seed++
	return nil
}

// printHistory renders the completed-query ring and the per-shape
// aggregates (the shell's pg_stat_statements).
func (s *session) printHistory() error {
	hist := s.db.History()
	if len(hist) == 0 {
		fmt.Fprintln(s.out, "(no completed queries)")
		return nil
	}
	fmt.Fprintln(s.out, "recent queries (most recent first):")
	fmt.Fprintf(s.out, "%4s %6s %6s %12s %10s %8s %5s  %-18s %s\n",
		"id", "stages", "blocks", "estimate", "±ci", "spent(s)", "util%", "reason", "query")
	for _, h := range hist {
		fmt.Fprintf(s.out, "%4d %6d %6d %12.1f %10.1f %8.2f %5.0f  %-18s %s\n",
			h.ID, h.Stages, h.Blocks, h.Estimate, h.Interval,
			h.Elapsed.Seconds(), h.Utilization*100, h.StopReason, h.Query)
	}
	fmt.Fprintln(s.out, "query shapes:")
	fmt.Fprintf(s.out, "%6s %7s %7s %9s %5s %8s %9s  %s\n",
		"calls", "stages", "blocks", "mean-ci", "ovsp", "drift%", "coverage", "query")
	for _, st := range s.db.QueryStats() {
		coverage := "-"
		if st.TruthN > 0 {
			coverage = fmt.Sprintf("%d/%d", st.TruthHits, st.TruthN)
		}
		fmt.Fprintf(s.out, "%6d %7.1f %7.1f %9.1f %5d %+8.1f %9s  %s\n",
			st.Calls, st.MeanStages, float64(st.TotalBlocks)/float64(st.Calls),
			st.MeanCIWidth, st.Overspends, 100*st.WorstOvershoot, coverage, st.Query)
	}
	return nil
}

// catalogCmd handles `\catalog` and its subcommands: bare `\catalog`
// prints the reuse stats plus the materialized sample sets and learned
// shape hints; `build` materializes sample sets for every relation
// (seeding hints from the telemetry shape stats), `build NAME COL`
// additionally builds a stratified variant keyed on COL, and
// `invalidate [NAME...]` drops sample sets (all of them with no names).
func (s *session) catalogCmd(rest string) error {
	sub, args := splitWord(rest)
	switch sub {
	case "":
		st := s.db.CatalogStats()
		fmt.Fprintf(s.out, "catalog: %d relation sample sets, %d shape hints\n", st.Relations, st.Shapes)
		fmt.Fprintf(s.out, "lookups %d: %d hits, %d misses, %d stale; reused %d blocks (%d bytes)\n",
			st.Lookups, st.Hits, st.Misses, st.Stale, st.BlocksReused, st.BytesReused)
		if rels := s.db.CatalogRelations(); len(rels) > 0 {
			fmt.Fprintln(s.out, "sample sets:")
			for _, r := range rels {
				strat := ""
				if r.StratifyCol != "" {
					strat = fmt.Sprintf(" stratified(%s, %d strata)", r.StratifyCol, r.Strata)
				}
				fmt.Fprintf(s.out, "  %-12s %6d blocks %9d tuples%s\n", r.Relation, r.NumBlocks, r.NumTuples, strat)
			}
		}
		if shapes := s.db.CatalogShapes(); len(shapes) > 0 {
			fmt.Fprintln(s.out, "shape hints:")
			fmt.Fprintf(s.out, "  %5s %9s %9s  %s\n", "calls", "coverage", "mean-ci", "shape")
			for _, sh := range shapes {
				fmt.Fprintf(s.out, "  %5d %8.1f%% %9.1f  %s\n",
					sh.Calls, 100*sh.HintFrac(), sh.MeanCIWidth(), sh.Fingerprint)
			}
		}
		return nil
	case "build":
		if args != "" {
			name, col := splitWord(args)
			if name == "" || col == "" {
				return fmt.Errorf(`usage: \catalog build [NAME COL]`)
			}
			if err := s.db.BuildCatalogStratified(name, strings.TrimSpace(col)); err != nil {
				return err
			}
			fmt.Fprintf(s.out, "built stratified sample set for %s on %s\n", name, strings.TrimSpace(col))
			return nil
		}
		if err := s.db.BuildCatalog(); err != nil {
			return err
		}
		st := s.db.CatalogStats()
		fmt.Fprintf(s.out, "built %d relation sample sets (%d shape hints)\n", st.Relations, st.Shapes)
		return nil
	case "invalidate":
		var names []string
		if strings.TrimSpace(args) != "" {
			names = strings.Fields(args)
		}
		if err := s.db.InvalidateCatalog(names...); err != nil {
			return err
		}
		if len(names) == 0 {
			fmt.Fprintln(s.out, "invalidated all sample sets and shape hints")
		} else {
			fmt.Fprintf(s.out, "invalidated %s (and dependent shape hints)\n", strings.Join(names, ", "))
		}
		return nil
	default:
		return fmt.Errorf(`usage: \catalog [build [NAME COL] | invalidate [NAME...]]`)
	}
}

// printFlightRecords renders the flight recorder's retained anomalous
// queries (oldest first): why each was captured and its final state.
func (s *session) printFlightRecords() error {
	recs := s.db.FlightRecords()
	if len(recs) == 0 {
		fmt.Fprintln(s.out, "(no flight records — no anomalous queries captured)")
		return nil
	}
	for _, r := range recs {
		truth := ""
		if r.Truth != nil {
			truth = fmt.Sprintf(" truth=%.0f", r.Truth.Value)
		}
		over := ""
		if r.Trace.End.Overspend > 0 {
			over = fmt.Sprintf(" overspend=%v", r.Trace.End.Overspend.Round(time.Millisecond))
		}
		note := ""
		if r.Note != "" {
			note = " " + r.Note
		}
		fmt.Fprintf(s.out, "#%d [%s]%s %s  stages=%d est=%.1f±%.1f%s%s stop=%s\n",
			r.Seq, strings.Join(r.Reasons, ","), note, r.Trace.Info.Query,
			r.Trace.End.Stages, r.Trace.End.Estimate, r.Trace.End.Interval,
			truth, over, r.Trace.End.StopReason)
	}
	return nil
}

// printSQL renders a SQL result, including group rows. Estimated
// results carry stages/elapsed detail unless `\timing off`.
func (s *session) printSQL(res *tcq.SQLResult) {
	line := res.String()
	if est := res.Estimate; est != nil && s.timing {
		line += fmt.Sprintf(" (%d stages, %d blocks, spent %.2fs)",
			est.Stages, est.Blocks, est.Elapsed.Seconds())
	}
	fmt.Fprintln(s.out, line)
	for _, g := range res.Groups {
		if g.Interval > 0 {
			fmt.Fprintf(s.out, "  %-12v %10.1f ± %.1f\n", g.Key, g.Value, g.Interval)
		} else {
			fmt.Fprintf(s.out, "  %-12v %10.0f\n", g.Key, g.Value)
		}
	}
}

// remoteQuery runs one request on the connected tcqd, carrying the
// session's estimate settings. With \trace on, estimates stream and
// each per-stage progress event renders as a trace line.
func (s *session) remoteQuery(req wire.QueryRequest) (*wire.Event, error) {
	req.DBeta = s.dBeta
	req.Strategy = s.strategy.String()
	req.Seed = s.seed
	req.Parallel = s.parallelism
	if s.traceOn && !req.Exact {
		req.Stream = true
	}
	return s.remote.Query(context.Background(), req, func(ev wire.Event) {
		fmt.Fprintf(s.out, "stage %d: est %.1f ± %.1f, spent %.0f%%, %d blocks\n",
			ev.Stage, ev.Estimate, ev.Interval, ev.SpentFrac*100, ev.Blocks)
		s.out.Flush()
	})
}

// printWireSpans renders the server's latency anatomy for the last
// remote request: the request id and every wire-to-wire span, in
// timeline order. Only under \trace on — the nanosecond values are
// real wall time, the one nondeterministic part of a response (the
// span golden in check.sh normalizes them).
func (s *session) printWireSpans(ev *wire.Event) {
	if !s.traceOn || ev == nil || len(ev.Spans) == 0 {
		return
	}
	fmt.Fprintf(s.out, "request %s: %d spans, wall %dns\n", ev.RequestID, len(ev.Spans), ev.Wall.Nanoseconds())
	for _, sp := range ev.Spans {
		name := sp.Name
		if sp.Stage > 0 {
			name = fmt.Sprintf("%s[%d]", name, sp.Stage)
		}
		fmt.Fprintf(s.out, "  %-16s %dns", name, sp.Dur.Nanoseconds())
		if sp.Retries > 0 {
			fmt.Fprintf(s.out, " (%d retries)", sp.Retries)
		}
		fmt.Fprintln(s.out)
	}
}

// printWireEstimate renders a remote estimate result in the shell's
// one-line format (mirroring printEstimate).
func (s *session) printWireEstimate(ev *wire.Event) {
	fmt.Fprintf(s.out, "estimate: %.1f ± %.1f (%.0f%%)",
		ev.Value, ev.Interval, ev.Confidence*100)
	if s.timing {
		fmt.Fprintf(s.out, ", %d stages, %d blocks, spent %.2fs, util %.0f%%",
			ev.Stages, ev.Blocks, ev.Elapsed.Seconds(), ev.Utilization*100)
		if ev.Overspent {
			fmt.Fprintf(s.out, ", OVERSPENT %.2fs", ev.Overrun.Seconds())
		}
	}
	fmt.Fprintf(s.out, "\n  [%s]\n", ev.StopReason)
}

// printWireSQL renders a remote SQL result (mirroring printSQL).
func (s *session) printWireSQL(ev *wire.Event) {
	var line string
	switch {
	case len(ev.Groups) > 0:
		line = fmt.Sprintf("%s by group (%d groups, total %.1f)", ev.Kind, len(ev.Groups), ev.Value)
	case ev.Exact:
		line = fmt.Sprintf("%s = %.1f", ev.Kind, ev.Value)
	default:
		line = fmt.Sprintf("%s ≈ %.1f ± %.1f", ev.Kind, ev.Value, ev.Interval)
	}
	if !ev.Exact && s.timing {
		line += fmt.Sprintf(" (%d stages, %d blocks, spent %.2fs)",
			ev.Stages, ev.Blocks, ev.Elapsed.Seconds())
	}
	fmt.Fprintln(s.out, line)
	for _, g := range ev.Groups {
		if g.Interval > 0 {
			fmt.Fprintf(s.out, "  %-12v %10.1f ± %.1f\n", g.Key, g.Value, g.Interval)
		} else {
			fmt.Fprintf(s.out, "  %-12v %10.0f\n", g.Key, g.Value)
		}
	}
}

// estimateOptions assembles the session's estimate settings.
func (s *session) estimateOptions(quota time.Duration) tcq.EstimateOptions {
	opts := tcq.EstimateOptions{
		Quota:         quota,
		DBeta:         s.dBeta,
		Strategy:      s.strategy,
		Seed:          s.seed,
		UseStatistics: s.useStats,
		Parallelism:   s.parallelism,
	}
	if s.traceOn {
		opts.Tracer = trace.NewText(s.out)
	}
	return opts
}

// printEstimate renders an estimate in the shell's one-line format.
func (s *session) printEstimate(est *tcq.Estimate) {
	fmt.Fprintf(s.out, "estimate: %.1f ± %.1f (%.0f%%)",
		est.Value, est.Interval, est.Confidence*100)
	if s.timing {
		fmt.Fprintf(s.out, ", %d stages, %d blocks, spent %.2fs, util %.0f%%",
			est.Stages, est.Blocks, est.Elapsed.Seconds(), est.Utilization*100)
		if est.Overspent {
			fmt.Fprintf(s.out, ", OVERSPENT %.2fs", est.Overrun.Seconds())
		}
	}
	fmt.Fprintf(s.out, "\n  [%s]\n", est.StopReason)
}

// gen handles: gen select NAME N OUT | gen project NAME N OUT |
// gen intersect NAME1 NAME2 N OUT | gen join NAME1 NAME2 N OUT
func (s *session) gen(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return fmt.Errorf("usage: gen select|project NAME N OUT | gen intersect|join NAME1 NAME2 N OUT")
	}
	kind := fields[0]
	rng := rand.New(rand.NewSource(s.seed))
	atoi := func(str string) (int, error) { return strconv.Atoi(str) }
	switch kind {
	case "select", "project":
		if len(fields) != 4 {
			return fmt.Errorf("usage: gen %s NAME N OUT", kind)
		}
		n, err := atoi(fields[2])
		if err != nil {
			return err
		}
		out, err := atoi(fields[3])
		if err != nil {
			return err
		}
		if kind == "select" {
			_, err = workload.SelectRelation(s.db.Store(), fields[1], n, out, rng)
		} else {
			_, err = workload.ProjectRelation(s.db.Store(), fields[1], n, out, rng)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "generated %s (%d tuples)\n", fields[1], n)
		return nil
	case "intersect", "join":
		if len(fields) != 5 {
			return fmt.Errorf("usage: gen %s NAME1 NAME2 N OUT", kind)
		}
		n, err := atoi(fields[3])
		if err != nil {
			return err
		}
		out, err := atoi(fields[4])
		if err != nil {
			return err
		}
		if kind == "intersect" {
			_, _, err = workload.IntersectPair(s.db.Store(), fields[1], fields[2], n, out, rng)
		} else {
			_, _, err = workload.JoinPair(s.db.Store(), fields[1], fields[2], n, out, rng)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "generated %s, %s (%d tuples each)\n", fields[1], fields[2], n)
		return nil
	default:
		return fmt.Errorf("gen kinds: select, project, intersect, join")
	}
}

func splitWord(s string) (first, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}
