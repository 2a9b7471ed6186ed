// Interactive: the paper's "impatient user" scenario — an analyst wants
// a join count *now*, watching the estimate refine stage by stage, and
// the system stops on its own once the answer is precise enough (the
// error-constrained stopping criterion of §3.2).
//
//	go run ./examples/interactive
package main

import (
	"fmt"
	"log"
	"math/rand"

	"time"

	"tcq"
	"tcq/internal/workload"
)

func main() {
	db := tcq.Open(tcq.WithSimulatedClock(11), tcq.WithLoadNoise(0.12))

	// The paper's join workload: two 10,000-tuple relations whose
	// equijoin has exactly 70,000 result tuples.
	rng := rand.New(rand.NewSource(5))
	if _, _, err := workload.JoinPair(db.Store(), "orders", "lineitems", workload.PaperTuples, 70000, rng); err != nil {
		log.Fatal(err)
	}
	q := tcq.Rel("orders").Join(tcq.Rel("lineitems"), "a", "a")
	fmt.Println("query: count(", q, ")   [exact answer: 70000]")
	fmt.Println()
	fmt.Printf("%5s %12s %12s %9s %8s\n", "stage", "estimate", "± stderr", "blocks", "elapsed")

	est, err := db.CountEstimate(q, tcq.EstimateOptions{
		// Generous ceiling; the error target is what stops us.
		Quota:          5 * time.Minute,
		TargetRelError: 0.05, // stop at ±5% (95% confidence)
		DBeta:          24,
		// The paper's join experiment assumes 0.1 at the first stage:
		// with the maximum assumption (1) the first sample is too small
		// to be informative.
		InitialJoinSelectivity: 0.1,
		Seed:                   2,
		// The progress stream reports the running (cumulative) sample
		// and elapsed time after every completed stage.
		Tracer: tcq.NewStream("", func(p tcq.QueryProgress, done bool) {
			if !done {
				fmt.Printf("%5d %12.1f %12.1f %9d %8.2fs\n",
					p.Stages, p.Estimate, p.StdErr, p.Blocks, p.Elapsed.Seconds())
			}
		}),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("final: %.0f ± %.0f at %.0f%% confidence\n", est.Value, est.Interval, est.Confidence*100)
	fmt.Printf("stopped after %.1fs of a %s ceiling: %s\n",
		est.Elapsed.Seconds(), "5m", est.StopReason)
	fmt.Printf("sampled %d of 4000 blocks (%.1f%%) to get there\n",
		est.Blocks, float64(est.Blocks)/40)
}
