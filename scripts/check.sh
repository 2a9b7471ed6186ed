#!/usr/bin/env bash
# Repo-wide CI gate: formatting, vet, build, race tests, and the
# simulated-determinism golden. Run from anywhere; optional flags:
#
#   scripts/check.sh          # the standard gate
#   scripts/check.sh -perf    # additionally diff host perf against the
#                             # committed BENCH_exec.json baseline
#                             # (meaningful on the baseline machine only)
set -euo pipefail
cd "$(dirname "$0")/.."

run_perf=0
for arg in "$@"; do
  case "$arg" in
    -perf) run_perf=1 ;;
    *) echo "usage: scripts/check.sh [-perf]" >&2; exit 2 ;;
  esac
done

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# perfbench/ is a nested module (the repo benchmark) importing tcq and
# its internal packages; the root ./... patterns above skip it, so an
# API change that breaks the benchmark would otherwise pass this gate.
echo "== perfbench vet + build"
(cd perfbench && go vet ./... && go build ./...)

echo "== go test -race"
go test -race ./...

# The concurrency-heavy surfaces (concurrent engine use, the sched
# Controller, the metrics registry, the live telemetry registry and its
# HTTP server, and the exec engine's lane record/replay and sub-term
# fan-out paths) get a second, cache-bypassing race pass so a cached
# "ok" from the run above can never mask an interleaving-dependent
# failure in exactly the code where interleavings matter.
echo "== go test -race -count=1 (concurrency surfaces)"
go test -race -count=1 \
  -run 'Concurrent|Parallel|Controller|Registry|Telemetry|Metrics|Serve|Lane|SubTerm|HardDeadline|Calib|Flight|Coverage|Ring|Wilson|Catalog|Stream|Drain|Reject|Tenant|SSE|Span|SLO|Retry|AdmitWait|Admission|NonStreaming|TracerSeesEveryStage|LabelValuesEscaped|LabelInjection|FuzzQueryHandler' \
  . ./internal/sched ./internal/trace ./internal/telemetry ./internal/calib \
  ./internal/stats ./internal/exec ./internal/core ./internal/bench \
  ./internal/catalog ./internal/server ./internal/client

# The experiment tables are a deterministic function of the seed: any
# change to the executor that perturbs the sequence of simulated-clock
# charges shows up as a diff here. Host-side performance work must keep
# this byte-identical (the "(N trials/row, X.Xs wall)" line is wall
# time and is filtered out).
echo "== determinism golden (fig5.2, 8 trials)"
got=$(go run ./cmd/tcqbench -exp fig5.2 -trials 8 | grep -v 'trials/row')
if ! diff <(cat testdata/golden_fig52_t8.txt) <(echo "$got"); then
  echo "simulated results diverged from testdata/golden_fig52_t8.txt" >&2
  exit 1
fi

# The stage trace is deterministic too: the same seed must produce a
# byte-identical JSON-lines trace (field order is fixed by the struct
# definitions, durations are integer nanoseconds, and tcqbench replays
# collectors in experiment → variant → trial order).
echo "== trace determinism golden (fig5.2, 8 trials)"
trace_tmp=$(mktemp)
trap 'rm -f "$trace_tmp"' EXIT
go run ./cmd/tcqbench -exp fig5.2 -trials 8 -trace "$trace_tmp" > /dev/null
if ! diff testdata/golden_trace_fig52_t8.jsonl "$trace_tmp"; then
  echo "stage trace diverged from testdata/golden_trace_fig52_t8.jsonl" >&2
  exit 1
fi

# The pure-join figure exercises the single-term path (batched merge,
# bucket joins, per-side sorts) that fig5.2's intersection does not
# cover schema-wise; keep its table and trace golden too.
echo "== determinism goldens (fig5.3, 8 trials)"
got=$(go run ./cmd/tcqbench -exp fig5.3 -trials 8 | grep -v 'trials/row')
if ! diff <(cat testdata/golden_fig53_t8.txt) <(echo "$got"); then
  echo "simulated results diverged from testdata/golden_fig53_t8.txt" >&2
  exit 1
fi
go run ./cmd/tcqbench -exp fig5.3 -trials 8 -trace "$trace_tmp" > /dev/null
if ! diff testdata/golden_trace_fig53_t8.jsonl "$trace_tmp"; then
  echo "stage trace diverged from testdata/golden_trace_fig53_t8.jsonl" >&2
  exit 1
fi

# Parallel evaluation must be invisible in the output: lane
# record/replay (terms) and gated charge-free fan-out (sub-term)
# guarantee byte-identical tables AND traces for any worker count.
# Re-run all four goldens with 4 workers; fig5.2 and fig5.3 are
# single-term queries, so this exercises the sub-term tier, which
# before this gate ran fully serially.
echo "== parallel determinism goldens (fig5.2 + fig5.3, -parallel 4)"
got=$(go run ./cmd/tcqbench -exp fig5.2 -trials 8 -parallel 4 | grep -v 'trials/row')
if ! diff <(cat testdata/golden_fig52_t8.txt) <(echo "$got"); then
  echo "-parallel 4 table diverged from testdata/golden_fig52_t8.txt" >&2
  exit 1
fi
go run ./cmd/tcqbench -exp fig5.2 -trials 8 -parallel 4 -trace "$trace_tmp" > /dev/null
if ! diff testdata/golden_trace_fig52_t8.jsonl "$trace_tmp"; then
  echo "-parallel 4 stage trace diverged from testdata/golden_trace_fig52_t8.jsonl" >&2
  exit 1
fi
got=$(go run ./cmd/tcqbench -exp fig5.3 -trials 8 -parallel 4 | grep -v 'trials/row')
if ! diff <(cat testdata/golden_fig53_t8.txt) <(echo "$got"); then
  echo "-parallel 4 table diverged from testdata/golden_fig53_t8.txt" >&2
  exit 1
fi
go run ./cmd/tcqbench -exp fig5.3 -trials 8 -parallel 4 -trace "$trace_tmp" > /dev/null
if ! diff testdata/golden_trace_fig53_t8.jsonl "$trace_tmp"; then
  echo "-parallel 4 stage trace diverged from testdata/golden_trace_fig53_t8.jsonl" >&2
  exit 1
fi

# Calibration auditing rides the tracer chain and inherits its
# read-only contract: with -calib enabled, the table AND the stage
# trace must stay byte-identical to the plain goldens (serially and
# with -parallel 4), and the calibration report itself is deterministic
# — same seed, same report, any worker count.
echo "== calibration goldens (fig5.2, 8 trials, serial + -parallel 4)"
calib_tmp=$(mktemp)
trap 'rm -f "$trace_tmp" "$calib_tmp"' EXIT
got=$(go run ./cmd/tcqbench -exp fig5.2 -trials 8 -calib "$calib_tmp" -trace "$trace_tmp" | grep -v -e 'trials/row' -e '^wrote ')
if ! diff <(cat testdata/golden_fig52_t8.txt) <(echo "$got"); then
  echo "table diverged from testdata/golden_fig52_t8.txt with -calib enabled" >&2
  exit 1
fi
if ! diff testdata/golden_trace_fig52_t8.jsonl "$trace_tmp"; then
  echo "stage trace diverged from testdata/golden_trace_fig52_t8.jsonl with -calib enabled" >&2
  exit 1
fi
if ! diff testdata/golden_calib_fig52_t8.txt "$calib_tmp"; then
  echo "calibration report diverged from testdata/golden_calib_fig52_t8.txt" >&2
  exit 1
fi
got=$(go run ./cmd/tcqbench -exp fig5.2 -trials 8 -parallel 4 -calib "$calib_tmp" -trace "$trace_tmp" | grep -v -e 'trials/row' -e '^wrote ')
if ! diff <(cat testdata/golden_fig52_t8.txt) <(echo "$got"); then
  echo "-parallel 4 table diverged from testdata/golden_fig52_t8.txt with -calib enabled" >&2
  exit 1
fi
if ! diff testdata/golden_trace_fig52_t8.jsonl "$trace_tmp"; then
  echo "-parallel 4 stage trace diverged from testdata/golden_trace_fig52_t8.jsonl with -calib enabled" >&2
  exit 1
fi
if ! diff testdata/golden_calib_fig52_t8.txt "$calib_tmp"; then
  echo "-parallel 4 calibration report diverged from testdata/golden_calib_fig52_t8.txt" >&2
  exit 1
fi

# The multi-figure calibration report is the acceptance surface for the
# paper's statistical promise: realized CI coverage must sit within the
# Wilson interval of the nominal level on every figure workload (the
# golden's per-shape verdicts are all "ok").
echo "== calibration report golden (fig5.1 + fig5.2 + fig5.3, 8 trials)"
go run ./cmd/tcqbench -exp fig5.1-1000,fig5.1-5000,fig5.2,fig5.3 -trials 8 -calib "$calib_tmp" > /dev/null
if ! diff testdata/golden_calib_t8.txt "$calib_tmp"; then
  echo "calibration report diverged from testdata/golden_calib_t8.txt" >&2
  exit 1
fi

# The sample-catalog reuse report is deterministic the same way: every
# trial builds its own seeded catalog, runs the shape cold (miss) and
# warm (hit), and the reduced table must be byte-identical at any trial
# parallelism. Note the golden sections above all run with the catalog
# disabled — their continued byte-identity is the standing proof that
# shipping the catalog feature did not perturb the default engine path.
echo "== catalog reuse golden (fig5.1 + fig5.2 + fig5.3, 8 trials, serial + -parallel 4)"
cat_tmp=$(mktemp)
trap 'rm -f "$trace_tmp" "$calib_tmp" "$cat_tmp"' EXIT
go run ./cmd/tcqbench -exp fig5.1-1000,fig5.1-5000,fig5.2,fig5.3 -trials 8 -catalog "$cat_tmp" > /dev/null
if ! diff testdata/golden_catalog_t8.txt "$cat_tmp"; then
  echo "catalog reuse report diverged from testdata/golden_catalog_t8.txt" >&2
  exit 1
fi
go run ./cmd/tcqbench -exp fig5.1-1000,fig5.1-5000,fig5.2,fig5.3 -trials 8 -parallel 4 -catalog "$cat_tmp" > /dev/null
if ! diff testdata/golden_catalog_t8.txt "$cat_tmp"; then
  echo "-parallel 4 catalog reuse report diverged from testdata/golden_catalog_t8.txt" >&2
  exit 1
fi

# The network service composes the same deterministic pieces: a tcqd
# on a simulated machine answers equal requests with equal seeds
# byte-identically, so a scripted tcqsh \connect session against a
# fresh loopback server is a golden. The transcript carries no
# addresses or wall-clock times (the ephemeral port appears only in
# the \connect input line, which non-interactive tcqsh does not echo);
# the SIGTERM at the end doubles as a graceful-drain smoke.
echo "== tcqd loopback smoke (deterministic serve golden)"
serve_dir=$(mktemp -d)
serve_log="$serve_dir/tcqd.log"
trap 'rm -f "$trace_tmp" "$calib_tmp" "$cat_tmp"; rm -rf "$serve_dir"' EXIT
go build -o "$serve_dir/tcqd" ./cmd/tcqd
"$serve_dir/tcqd" -addr 127.0.0.1:0 -gen "select orders 20000 2000" > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 100); do
  grep -q 'listening on' "$serve_log" && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^tcqd: listening on //p' "$serve_log")
if [ -z "$serve_addr" ]; then
  echo "tcqd never came up:" >&2; cat "$serve_log" >&2; exit 1
fi
smoke=$(printf '\\connect %s alice\nrels\ncount select(orders, a < 2000)\nestimate 2s select(orders, a < 2000)\nestsql 2s SELECT AVG(a) FROM orders WHERE a < 5000\n\\disconnect\nquit\n' "$serve_addr" | go run ./cmd/tcqsh)
kill -TERM "$serve_pid"
wait "$serve_pid"
if ! diff testdata/golden_serve_smoke.txt <(echo "$smoke"); then
  echo "serve transcript diverged from testdata/golden_serve_smoke.txt" >&2
  exit 1
fi
if ! grep -q 'tcqd: bye' "$serve_log"; then
  echo "tcqd did not drain cleanly on SIGTERM:" >&2; cat "$serve_log" >&2
  exit 1
fi

# The latency anatomy is golden-able the same way: a fresh tcqd (so
# the request counter starts at req-1) serves one traced estimate, and
# everything in the transcript except the span nanosecond values —
# request id, span names, span count, order, per-stage estimates — is
# a deterministic function of the seed. The sed pass normalizes the
# one nondeterministic ingredient (real wall-clock span durations) so
# the golden pins the anatomy's shape.
echo "== span anatomy smoke (deterministic span golden, ns normalized)"
span_log="$serve_dir/tcqd_spans.log"
"$serve_dir/tcqd" -addr 127.0.0.1:0 -gen "select orders 20000 2000" > "$span_log" 2>&1 &
span_pid=$!
for _ in $(seq 100); do
  grep -q 'listening on' "$span_log" && break
  sleep 0.1
done
span_addr=$(sed -n 's/^tcqd: listening on //p' "$span_log")
if [ -z "$span_addr" ]; then
  echo "span-smoke tcqd never came up:" >&2; cat "$span_log" >&2; exit 1
fi
spans=$(printf '\\connect %s alice\n\\trace on\nestimate 2s select(orders, a < 2000)\n\\disconnect\nquit\n' "$span_addr" \
  | go run ./cmd/tcqsh | sed -E 's/[0-9]+ns/_ns/g')
kill -TERM "$span_pid"
wait "$span_pid"
if ! diff testdata/golden_spans_smoke.txt <(echo "$spans"); then
  echo "span anatomy diverged from testdata/golden_spans_smoke.txt" >&2
  exit 1
fi

# The CI perf diff is a catastrophic-regression tripwire, not a precise
# meter: at 8 trials on a shared box, run-to-run ns/trial noise can
# exceed 30% (the tentpole's batch-path wins were 3.7–5.9x, far above
# any tolerance here). For careful same-machine comparisons run
# tcqbench -perf with more trials and the default -perftol 10.
if [ "$run_perf" = 1 ]; then
  echo "== host perf vs BENCH_exec.json (tolerance 50%)"
  go run ./cmd/tcqbench -perf -exp fig5.1-1000,fig5.1-5000,fig5.2,fig5.3,perf-join-scale -trials 8 \
    -perfout '' -perfbase BENCH_exec.json -perftol 50
fi

echo "OK"
