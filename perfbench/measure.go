package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// opStats accumulates the end-to-end view of one measured region.
type opStats struct {
	attempted, failed int64
	// unanswered counts answers without a completed stage (Stages == 0):
	// the engine returned 0 ± 0 because no stage fit the quota. The
	// call itself succeeded, so they are not failed operations; they
	// lower ok_share.
	unanswered int64
	// answered counts operations that returned an answer; overran those
	// that missed their deadline.
	answered, overran int64
	covered           int64
	relHalf           []float64
	latMS             []float64   // host wall time per operation
	cpu               []cpuSample // host CPU time per operation
}

// cpuSample is the process CPU time one operation took and when it
// ended, on the clock of the run's speedRef.
type cpuSample struct{ at, cpu time.Duration }

// cpuNow is the process's CPU time (all threads, user and system). On
// a virtual machine whose kernel accounts steal time it excludes the
// time the host took the CPUs away.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// answer scores one returned estimate against the generator's exact
// truth. An estimate without a completed stage is unanswered; a
// non-finite value or a negative interval is a correctness failure.
func (s *opStats) answer(o *outcome, what string, value, interval, truth float64, stages int, overran bool) {
	if math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(interval) || math.IsInf(interval, 0) || interval < 0 {
		o.mismatch("%s: estimate %v ± %v is not a finite value with a non-negative interval", what, value, interval)
		s.failed++
		return
	}
	s.answered++
	if overran {
		s.overran++
	}
	if stages == 0 {
		s.unanswered++
		return
	}
	if math.Abs(value-truth) <= interval {
		s.covered++
	}
	s.relHalf = append(s.relHalf, interval/truth)
}

// addCounts adds u's attempted, failed and unanswered operations (not
// its answer scores) to s.
func (s *opStats) addCounts(u opStats) {
	s.attempted += u.attempted
	s.failed += u.failed
	s.unanswered += u.unanswered
}

// coverage is the share of scored intervals that contain the truth.
func (s *opStats) coverage() float64 { return share(s.covered, int64(len(s.relHalf))) }

// deadlineMet is the share of answers that did not overrun.
func (s *opStats) deadlineMet() float64 { return 1 - share(s.overran, s.answered) }

// reportQuality writes the operation counts and the answer-quality
// metrics, which rest on the simulated clock and the data alone.
func (s *opStats) reportQuality(o *outcome) {
	o.attempted += s.attempted
	o.failed += s.failed
	o.metrics["ok_share"] = 1 - share(s.failed+s.unanswered, s.attempted)
	o.metrics["sim.deadline_met_share"] = s.deadlineMet()
	o.pct("sim.ci_rel_halfwidth_p50", s.relHalf, 0.50, 1)
	o.metrics["sim.ci_coverage"] = s.coverage()
}

// reportCPU writes the host CPU time per operation, scaled to the
// reference speed.
func (s *opStats) reportCPU(o *outcome, ref *speedRef) {
	if ref != nil && ref.err != nil {
		o.mismatch("speed reference: %v", ref.err)
	}
	if ref != nil {
		raw := (*speedRef)(nil).scaleMS(s.cpu)
		p99, _ := percentile(raw, 0.99)
		fmt.Fprintf(os.Stderr, "perfbench: unscaled CPU ms p50 %.4g p99 %.4g\n", median(raw), p99)
	}
	ms := ref.scaleMS(s.cpu)
	o.pct("host.cpu_ms_p50", ms, 0.50, 1)
	o.pct("host.cpu_ms_p99", ms, 0.99, 1)
}

// reportWall writes the host wall time per operation as the client
// saw it.
func reportWall(o *outcome, latMS []float64) {
	o.pct("client.wall_ms_p50", latMS, 0.50, 1)
	o.pct("client.wall_ms_p99", latMS, 0.99, 1)
}

// heapSampler reads the bytes of live and not-yet-swept heap objects
// every 2 ms until stopped (on one P, whenever the measured goroutine is
// preempted, about every 10 ms). The level reported from its samples is
// their p95, the size the heap stays under 95% of the time. The maximum
// is a single sample, and it and the p99 jumped by half or more between
// otherwise equal runs when a collection finished late.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), samples: make([]float64, 0, 1<<14)}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.done.Wait()
}

// report writes host.heap_mb_p95 from a stopped sampler.
func (h *heapSampler) report(o *outcome) {
	o.pct("host.heap_mb_p95", h.samples, 0.95, 1.0/(1<<20))
}

// gcDelta reports the allocator and collector work between two points.
type gcDelta struct{ before runtime.MemStats }

func startGC() *gcDelta {
	g := &gcDelta{}
	runtime.ReadMemStats(&g.before)
	return g
}

// report writes the gc.* layer metrics, per operation where stated.
func (g *gcDelta) report(o *outcome, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops < 1 {
		ops = 1
	}
	n := float64(ops)
	o.metrics["gc.alloc_mb_per_op"] = float64(after.TotalAlloc-g.before.TotalAlloc) / (1 << 20) / n
	o.metrics["gc.allocs_per_op"] = float64(after.Mallocs-g.before.Mallocs) / n
	o.metrics["gc.cycles_per_op"] = float64(after.NumGC-g.before.NumGC) / n
	o.metrics["gc.pause_ms_total"] = float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e6
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median of their process CPU times, and the last set-up is the one
// measured.
const setupRepeats = 21

// opSeed derives the sampling seed of operation i from the run seed.
func opSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x>>1) | 1
}
