package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tcq/internal/ra"
	"tcq/internal/sampling"
	"tcq/internal/storage"
	"tcq/internal/tuple"
	"tcq/internal/vclock"
)

// skewStore creates columnar relations r and s of n tuples each whose
// key column a takes card values, so equal-key groups are large.
func skewStore(t *testing.T, n int, card int64) (*storage.Store, *vclock.Sim) {
	t.Helper()
	clk := vclock.NewSim(5, 0.01)
	st := storage.NewStore(clk, storage.SunProfile(), storage.DefaultBlockSize)
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	rng := rand.New(rand.NewSource(17))
	for _, name := range []string{"r", "s"} {
		ids, as := make([]int64, n), make([]int64, n)
		for i := range ids {
			ids[i], as[i] = int64(i), rng.Int63n(card)
		}
		b, err := tuple.MakeBatch(sch, n, ids, as)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := st.CreateRelation(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return st, clk
}

// countTwinRun evaluates e over a fresh skewStore for up to four stages
// and fingerprints every stage: the error, the root's cumulative output,
// the comparison and poll counters, and the simulated clock. With
// materialize set the root aggregates a column, which makes it build
// its output tuples; otherwise the root is count-only. quotas, when
// non-nil, arm a hard deadline of quotas[stage] before each stage's
// evaluation. It also returns each stage's simulated duration.
func countTwinRun(t *testing.T, e ra.Expr, aggCol string, plan Plan, workers int, materialize bool, quotas []time.Duration) ([]string, []time.Duration) {
	t.Helper()
	st, clk := skewStore(t, 2000, 4)
	env := NewEnv(st)
	q, err := NewParallelQuery(e, env, StoreCatalog{Store: st}, plan, workers)
	if err != nil {
		t.Fatal(err)
	}
	if materialize {
		if err := q.SetAggregate(aggCol); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(23))
	names := q.FeedNames()
	samplers := make([]*sampling.BlockSampler, len(names))
	for i, name := range names {
		samplers[i] = sampling.NewBlockSampler(q.Feeds[name].Rel.NumBlocks(), rng)
	}
	root := q.Terms[0].Root.(*mergeNode)
	var prints []string
	var durs []time.Duration
	for stage := 0; stage < 4; stage++ {
		for i, name := range names {
			if err := q.Feeds[name].LoadStage(samplers[i].Draw(4 + 2*stage)); err != nil {
				t.Fatal(err)
			}
		}
		if quotas != nil {
			env.SetDeadline(vclock.NewDeadline(clk, quotas[stage]))
		}
		t0 := clk.Now()
		err := q.AdvanceStage(stage)
		durs = append(durs, clk.Now()-t0)
		prints = append(prints, fmt.Sprintf("stage %d: err=%v cumOut=%d comps=%d polls=%d now=%d",
			stage, err, root.CumOutTuples(), env.Comparisons, env.DeadlinePolls, clk.Now()))
		if err != nil {
			break
		}
	}
	if root.stages > 0 && root.rowless == materialize {
		t.Fatalf("%v materialize=%v: root rowless=%v, want the other evaluation mode", e, materialize, root.rowless)
	}
	return prints, durs
}

// TestCountOnlyRootMatchesMaterializing pins the count-only root to the
// materializing evaluation it replaces: on the same query and seed, a
// root that only counts and a root that builds its output must agree on
// every stage's cumulative output, comparison and poll counters and
// simulated clock — unarmed, under sub-term workers, and under hard
// deadlines that abort partway through a stage.
func TestCountOnlyRootMatchesMaterializing(t *testing.T) {
	join := &ra.Join{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"},
		On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
	isect := &ra.Intersect{Inputs: []ra.Expr{
		&ra.Project{Input: &ra.Base{Name: "r"}, Cols: []string{"a"}},
		&ra.Project{Input: &ra.Base{Name: "s"}, Cols: []string{"a"}},
	}}
	cases := []struct {
		name   string
		e      ra.Expr
		aggCol string
	}{{"join", join, "l.id"}, {"intersect", isect, "a"}}
	for _, c := range cases {
		for _, plan := range []Plan{FullFulfillment, PartialFulfillment} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/%v/workers=%d", c.name, plan, workers)
				want, durs := countTwinRun(t, c.e, c.aggCol, plan, workers, true, nil)
				got, _ := countTwinRun(t, c.e, c.aggCol, plan, workers, false, nil)
				diffPrints(t, name+"/unarmed", got, want)
				for _, frac := range []float64{0.3, 0.6, 0.95, 2} {
					quotas := make([]time.Duration, len(durs))
					for i, d := range durs {
						quotas[i] = time.Duration(frac * float64(d))
					}
					want, _ := countTwinRun(t, c.e, c.aggCol, plan, workers, true, quotas)
					got, _ := countTwinRun(t, c.e, c.aggCol, plan, workers, false, quotas)
					diffPrints(t, fmt.Sprintf("%s/armed %.2f", name, frac), got, want)
				}
			}
		}
	}
}

func diffPrints(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: count-only ran %d stages, materializing %d\n%v\n%v", name, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s:\ncount-only    %s\nmaterializing %s", name, got[i], want[i])
		}
	}
}

// TestCountOnlyAbortInsideEqualKeyGroup arms a hard deadline on a clock
// that advances at every read, so it expires between two polls of the
// merge walk, and sweeps it across a stage whose merge is one equal-key
// group: 100 × 100, and 3 × 341 and 32 × 32, whose last pair lands
// exactly on a poll position of the full- and the partial-fulfillment
// walk. At every deadline the count-only walk must abort at the same
// poll as the emitting walk — same error, counters and clock — a
// deadline that never expires must see the same polls, and at least one
// deadline must abort the emitting walk partway through the group.
func TestCountOnlyAbortInsideEqualKeyGroup(t *testing.T) {
	sch := tuple.MustSchema(
		tuple.Column{Name: "id", Type: tuple.Int},
		tuple.Column{Name: "a", Type: tuple.Int},
	)
	group := func(n int) []tuple.Tuple {
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			ts[i] = tuple.Tuple{int64(i), int64(7)}
		}
		return ts
	}
	run := func(l, r []tuple.Tuple, plan Plan, quota int, emit bool) (string, int) {
		env, clk := deadlineEnv(quota)
		left := &stubNode{schema: sch, stages: [][]tuple.Tuple{l}}
		right := &stubNode{schema: sch, stages: [][]tuple.Tuple{r}}
		node, err := newJoinNode(env, left, right, []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		mn := node.(*mergeNode)
		var count int
		if emit {
			var out []tuple.Tuple
			out, err = mn.Advance(0)
			count = len(out)
		} else {
			count, err = mn.advanceCount(0)
		}
		emitted := 0
		for _, b := range mn.bucketsA {
			emitted += len(b)
		}
		return fmt.Sprintf("err=%v count=%d cumOut=%d comps=%d polls=%d now=%d",
			err, count, mn.CumOutTuples(), env.Comparisons, env.DeadlinePolls, clk.t), emitted
	}
	inside := 0
	for _, plan := range []Plan{FullFulfillment, PartialFulfillment} {
		for _, shape := range [][2]int{{100, 100}, {3, 341}, {32, 32}} {
			l, r := group(shape[0]), group(shape[1])
			// Deadlines of 150–400 ticks expire from the sort, through
			// the walk's polls inside the group, to the per-pair charges.
			quotas := []int{1 << 30}
			for q := 150; q < 400; q++ {
				quotas = append(quotas, q)
			}
			for _, quota := range quotas {
				want, emitted := run(l, r, plan, quota, true)
				got, _ := run(l, r, plan, quota, false)
				if got != want {
					t.Fatalf("%v plan, %v group, deadline %dms:\ncount-only    %s\nmaterializing %s", plan, shape, quota, got, want)
				}
				if emitted > 0 && emitted < len(l)*len(r) {
					inside++
				}
			}
		}
	}
	if inside == 0 {
		t.Fatal("no deadline aborted the walk inside the equal-key group")
	}
}

// TestFeedStageTuplesConcurrentLazyRows checks the lazy rows of a
// columnar feed: concurrent first calls of StageTuples (term lanes share
// feeds) all get the one row set, built once, and it holds exactly the
// rows block reads return, in block order.
func TestFeedStageTuplesConcurrentLazyRows(t *testing.T) {
	st, _ := buildBoundaryStore(t, 300, true)
	rel, err := st.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFeed(NewEnv(st), rel)
	blocks := []int{3, 0, rel.NumBlocks() - 1, 2}
	if err := f.LoadStage(blocks); err != nil {
		t.Fatal(err)
	}
	var want []tuple.Tuple
	for _, b := range blocks {
		blk, err := rel.ReadBlockIn(st, b, vclock.Unarmed())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, blk...)
	}
	got := make([][]tuple.Tuple, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts, err := f.StageTuples(0)
			if err != nil {
				t.Error(err)
			}
			got[i] = ts
		}()
	}
	wg.Wait()
	if f.StageLen(0) != len(want) || f.StageBatch(0).Len() != len(want) {
		t.Fatalf("stage length %d (batch %d), want %d", f.StageLen(0), f.StageBatch(0).Len(), len(want))
	}
	for i, ts := range got {
		if len(ts) != len(want) || &ts[0] != &got[0][0] {
			t.Fatalf("caller %d got a different row set (%d rows)", i, len(ts))
		}
	}
	for j := range want {
		if tuple.Compare(got[0][j], want[j], nil, nil) != 0 {
			t.Fatalf("row %d: %v, block read %v", j, got[0][j], want[j])
		}
	}
}

// TestCountJoinStageAllocsIndependentOfSampleSize guards the
// late-materialization contract: a keyed COUNT join over columnar feeds
// builds no rows and no per-block or per-tuple objects, so evaluating
// its stages allocates the same number of objects at 100 sampled blocks
// per stage as at 1,000.
func TestCountJoinStageAllocsIndependentOfSampleSize(t *testing.T) {
	const maxBlocks = 1000
	st, _ := skewStore(t, 200000, 1<<40)
	for _, name := range []string{"r", "s"} {
		if rel, _ := st.Relation(name); rel.NumBlocks() < 2*maxBlocks {
			t.Fatalf("relation %s has %d blocks, want at least %d", name, rel.NumBlocks(), 2*maxBlocks)
		}
	}
	e := &ra.Join{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"},
		On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
	stageAllocs := func(k int) float64 {
		stages := [][]int{make([]int, k), make([]int, k)}
		for i := 0; i < k; i++ {
			stages[0][i], stages[1][i] = i, k+i
		}
		return testing.AllocsPerRun(3, func() {
			env := NewEnv(st)
			q, err := NewQuery(e, env, StoreCatalog{Store: st}, FullFulfillment)
			if err != nil {
				t.Fatal(err)
			}
			for s, blocks := range stages {
				for _, name := range q.FeedNames() {
					if err := q.Feeds[name].LoadStage(blocks); err != nil {
						t.Fatal(err)
					}
				}
				if err := q.AdvanceStage(s); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	small, large := stageAllocs(100), stageAllocs(maxBlocks)
	if small != large {
		t.Fatalf("two COUNT join stages allocate %v objects at 100 blocks per stage but %v at %d", small, large, maxBlocks)
	}
}

// TestCountOnlyRootRefusesLateAggregate checks the guard on key-only
// runs: once a merge root has evaluated a stage count-only, configuring
// an aggregate that needs its output tuples makes the next stage fail
// instead of emitting from runs that hold no tuples.
func TestCountOnlyRootRefusesLateAggregate(t *testing.T) {
	st, _ := skewStore(t, 500, 4)
	e := &ra.Join{Left: &ra.Base{Name: "r"}, Right: &ra.Base{Name: "s"},
		On: []ra.JoinCond{{LeftCol: "a", RightCol: "a"}}}
	q, _ := mustQuery(t, st, e, FullFulfillment)
	for stage := 0; stage < 2; stage++ {
		for _, name := range q.FeedNames() {
			if err := q.Feeds[name].LoadStage([]int{stage}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := q.AdvanceStage(0); err != nil {
		t.Fatal(err)
	}
	if err := q.SetAggregate("l.id"); err != nil {
		t.Fatal(err)
	}
	if err := q.AdvanceStage(1); err == nil {
		t.Fatal("a count-only root emitted tuples for a late aggregate")
	}
}
