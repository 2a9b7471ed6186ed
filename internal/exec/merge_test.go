package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tcq/internal/ra"
	"tcq/internal/sortx"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// tickClock advances by step on every Now() call, so a deadline armed
// on it expires after a bounded number of polls regardless of charges.
// It stands in for the paper's timer interrupt firing while an executor
// is between charge points.
type tickClock struct {
	t    time.Duration
	step time.Duration
}

func (c *tickClock) Now() time.Duration     { c.t += c.step; return c.t }
func (c *tickClock) Charge(d time.Duration) { c.t += d }

// deadlineEnv builds an Env on a tickClock with a deadline that expires
// after roughly polls deadline checks.
func deadlineEnv(polls int) (*Env, *tickClock) {
	clk := &tickClock{step: time.Millisecond}
	st := storage.NewStore(clk, storage.FastProfile(), storage.DefaultBlockSize)
	env := NewEnv(st)
	env.SetDeadline(vclock.NewDeadline(clk, time.Duration(polls)*time.Millisecond))
	return env, clk
}

// makePres builds the sortx.Prefix abbreviations of a key array.
func makePres(keys [][]byte) []uint64 {
	pres := make([]uint64, len(keys))
	for i, k := range keys {
		pres[i] = sortx.Prefix(k)
	}
	return pres
}

// singleKeyNode builds a bare merge node whose runs it joins directly
// (intersect semantics on column 0).
func singleKeyNode(env *Env) (*mergeNode, *tuple.Schema, []tuple.Tuple) {
	sch := tuple.MustSchema(tuple.Column{Name: "a", Type: tuple.Int})
	n := &mergeNode{
		lcols: []int{0}, rcols: []int{0},
		emit: func(l, r tuple.Tuple) tuple.Tuple { return l },
		env:  env,
	}
	run := make([]tuple.Tuple, 100)
	for i := range run {
		run[i] = tuple.Tuple{int64(7)}
	}
	return n, sch, run
}

// TestMergeJoinDeadlineAbortsEmitLoop is the regression test for the
// unbounded equal-key cross-product emit loop: with every tuple sharing
// one key, the pre-fix merge join polled the deadline only on entry
// ((i+j)%16 with i=j=0) and then emitted all |l|·|r| matches without
// ever noticing an expired deadline. The fixed loop polls at block
// granularity and must abort mid-emission.
func TestMergeJoinDeadlineAbortsEmitLoop(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		env, _ := deadlineEnv(5)
		n, _, run := singleKeyNode(env)
		_, _, err := n.mergeJoin(run, run)
		if !IsAborted(err) {
			t.Fatalf("mergeJoin on a 100x100 single-key cross product: got err=%v, want deadline abort", err)
		}
	})
	t.Run("keyed", func(t *testing.T) {
		env, _ := deadlineEnv(5)
		n, sch, run := singleKeyNode(env)
		keys := buildNormKeys(run, sch, []int{0})
		sr := sortedRun{ts: run, keys: keys, pres: makePres(keys)}
		_, _, _, err := n.keyedMergeJoin(sr, sr, true)
		if !IsAborted(err) {
			t.Fatalf("keyedMergeJoin on a 100x100 single-key cross product: got err=%v, want deadline abort", err)
		}
	})
	// Sanity: with a generous deadline the same join completes in full.
	t.Run("completes", func(t *testing.T) {
		env, _ := deadlineEnv(1 << 20)
		n, _, run := singleKeyNode(env)
		out, comps, err := n.mergeJoin(run, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100*100 {
			t.Fatalf("got %d matches, want %d", len(out), 100*100)
		}
		// 1 main-loop comparison + 99 extent comparisons per side.
		if want := int64(1 + 99 + 99); comps != want {
			t.Fatalf("got %d comparisons, want %d", comps, want)
		}
	})
}

// randRun returns a sorted run of (id, a) tuples with the requested key
// skew on column a.
func randRun(rng *rand.Rand, size, maxKey int) []tuple.Tuple {
	ts := make([]tuple.Tuple, size)
	for i := range ts {
		ts[i] = tuple.Tuple{int64(rng.Intn(1 << 16)), int64(rng.Intn(maxKey))}
	}
	cols := []int{1}
	sort.SliceStable(ts, func(a, b int) bool { return tuple.Compare(ts[a], ts[b], cols, cols) < 0 })
	return ts
}

// TestPairCompsMatchesMergeJoin checks that the group-summary formula
// used to charge the simulated clock on the cumulative path reproduces
// the element-level comparison count of the legacy merge join, across
// random run sizes and duplicate distributions (including empty runs
// and runs with a single heavy key).
func TestPairCompsMatchesMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	for trial := 0; trial < 300; trial++ {
		maxKey := []int{1, 2, 5, 40, 1000}[rng.Intn(5)]
		l := randRun(rng, rng.Intn(60), maxKey)
		r := randRun(rng, rng.Intn(60), maxKey)

		clk := vclock.NewSim(1, 0)
		st := storage.NewStore(clk, storage.FastProfile(), storage.DefaultBlockSize)
		n := &mergeNode{
			lcols: []int{1}, rcols: []int{1},
			emit: func(a, b tuple.Tuple) tuple.Tuple { return a },
			env:  NewEnv(st),
		}
		_, comps, err := n.mergeJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		lk := buildNormKeys(l, sch, []int{1})
		rk := buildNormKeys(r, sch, []int{1})
		got := pairComps(groupsOf(lk, makePres(lk)), groupsOf(rk, makePres(rk)))
		if got != comps {
			t.Fatalf("trial %d (|l|=%d |r|=%d maxKey=%d): pairComps=%d, mergeJoin comps=%d",
				trial, len(l), len(r), maxKey, got, comps)
		}
	}
}

// stubNode feeds a merge node a fixed per-stage tuple sequence.
type stubNode struct {
	schema *tuple.Schema
	stages [][]tuple.Tuple
	out    int64
}

func (s *stubNode) ID() int               { return 0 }
func (s *stubNode) Op() OpKind            { return OpBase }
func (s *stubNode) Children() []Node      { return nil }
func (s *stubNode) Schema() *tuple.Schema { return s.schema }
func (s *stubNode) Stats() Stats          { return Stats{CumOut: float64(s.out)} }
func (s *stubNode) CumOutTuples() int64   { return s.out }
func (s *stubNode) Advance(stage int) ([]tuple.Tuple, error) {
	ts := s.stages[stage]
	s.out += int64(len(ts))
	return ts, nil
}

// twinCase is one randomly generated multi-stage merge workload,
// realised over two element-wise equal datasets: one with Int key
// columns (normalized-key fast path) and one with Float key columns
// (legacy per-pair path — CompareValues' NaN semantics rule out byte
// keys, so Float always takes the reference implementation).
type twinCase struct {
	nStages int
	plan    Plan
	op      string // "join" or "intersect"
	intL    [][]tuple.Tuple
	intR    [][]tuple.Tuple
	fltL    [][]tuple.Tuple
	fltR    [][]tuple.Tuple
}

func genTwinCase(rng *rand.Rand) twinCase {
	c := twinCase{nStages: 1 + rng.Intn(5)}
	if rng.Intn(2) == 0 {
		c.plan = FullFulfillment
	} else {
		c.plan = PartialFulfillment
	}
	if rng.Intn(2) == 0 {
		c.op = "join"
	} else {
		c.op = "intersect"
	}
	maxKey := []int{1, 3, 12, 200}[rng.Intn(4)]
	gen := func() (ints, floats [][]tuple.Tuple) {
		for s := 0; s < c.nStages; s++ {
			size := rng.Intn(30) // empty stages included
			it := make([]tuple.Tuple, size)
			ft := make([]tuple.Tuple, size)
			for i := 0; i < size; i++ {
				id, a := int64(rng.Intn(50)), int64(rng.Intn(maxKey))
				it[i] = tuple.Tuple{id, a}
				ft[i] = tuple.Tuple{float64(id), float64(a)}
			}
			ints = append(ints, it)
			floats = append(floats, ft)
		}
		return ints, floats
	}
	c.intL, c.fltL = gen()
	c.intR, c.fltR = gen()
	return c
}

// buildTwin assembles one merge node over stub children.
func buildTwin(t *testing.T, ct tuple.ColType, l, r [][]tuple.Tuple, op string, plan Plan) (Node, *Env, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim(11, 0)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	env := NewEnv(st)
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: ct},
		tuple.Column{Name: "a", Type: ct},
	)
	left := &stubNode{schema: sch, stages: l}
	right := &stubNode{schema: sch, stages: r}
	var node Node
	var err error
	if op == "join" {
		node, err = newJoinNode(env, left, right, []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}, plan, nil)
	} else {
		node, err = newIntersectNode(env, left, right, plan, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return node, env, clk
}

// TestCumulativeMatchesLegacyQuick is the equivalence property test for
// the incremental full-fulfillment rewrite: over random stage counts,
// run sizes (empty runs included), duplicate distributions, operators
// and fulfillment plans, the normalized-key cumulative path must
// produce, stage by stage, (1) the same output tuples in the same
// order, (2) the same simulated clock total, (3) the same recorded step
// units, and (4) the same point-space statistics as the legacy per-pair
// path run on element-wise identical Float data.
func TestCumulativeMatchesLegacyQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := genTwinCase(rng)

		fast, fastEnv, fastClk := buildTwin(t, tuple.Int, c.intL, c.intR, c.op, c.plan)
		if mn := fast.(*mergeNode); !mn.keyed {
			t.Fatal("Int twin did not select the keyed fast path")
		}
		ref, refEnv, refClk := buildTwin(t, tuple.Float, c.fltL, c.fltR, c.op, c.plan)
		if mn := ref.(*mergeNode); mn.keyed {
			t.Fatal("Float twin did not select the legacy path")
		}

		for s := 0; s < c.nStages; s++ {
			fastOut, err := fast.Advance(s)
			if err != nil {
				t.Fatal(err)
			}
			refOut, err := ref.Advance(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(fastOut) != len(refOut) {
				t.Logf("seed %d stage %d (%s/%v): %d vs %d output tuples",
					seed, s, c.op, c.plan, len(fastOut), len(refOut))
				return false
			}
			for i := range fastOut {
				if len(fastOut[i]) != len(refOut[i]) {
					return false
				}
				for col := range fastOut[i] {
					if numeric(fastOut[i][col]) != numeric(refOut[i][col]) {
						t.Logf("seed %d stage %d tuple %d col %d: %v vs %v",
							seed, s, i, col, fastOut[i][col], refOut[i][col])
						return false
					}
				}
			}
			if fastClk.Now() != refClk.Now() {
				t.Logf("seed %d stage %d: clock %v vs %v", seed, s, fastClk.Now(), refClk.Now())
				return false
			}
		}
		fs, rs := fast.Stats(), ref.Stats()
		if fs.CumPoints != rs.CumPoints || fs.CumOut != rs.CumOut {
			t.Logf("seed %d: stats %+v vs %+v", seed, fs, rs)
			return false
		}
		ft, rt := fastEnv.TakeTimings(), refEnv.TakeTimings()
		if len(ft) != len(rt) {
			t.Logf("seed %d: %d vs %d step timings", seed, len(ft), len(rt))
			return false
		}
		for i := range ft {
			if ft[i].Step != rt[i].Step || ft[i].Units != rt[i].Units {
				t.Logf("seed %d: step %d: (%v, %v) vs (%v, %v)",
					seed, i, ft[i].Step, ft[i].Units, rt[i].Step, rt[i].Units)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
