package exec

// Incremental evaluation of the full-fulfillment merge plan.
//
// The paper's Fig. 4.5 plan combines stage s's new runs with every
// previous stage's runs: 2s+1 independent two-run merge-joins. Executed
// literally, the host-side work per stage grows linearly in s (and
// quadratically over a query), even though the *logical* result is just
// "new left × all right so far, plus all previous left × new right".
//
// This file evaluates the same plan with two physical merge-joins per
// stage against cumulative sorted runs:
//
//	newL × (cumR ∪ newR)    and    cumL × newR
//
// where cumL/cumR are each side's samples from all previous stages kept
// merged in one sorted sequence. Per-stage runs are immutable once
// sorted; the cumulative sequence is a slice of packed (stage, index)
// references into them — pointer-free, so folding a new stage in is a
// write-barrier-free merge of int64s rather than a rewrite of tuple and
// key slices. Match emissions are bucketed by the cumulative element's
// stage and the buckets concatenated in the Fig. 4.5 pair order, so the
// output slice is identical — element for element — to the per-pair
// plan's output. Comparisons compare cached normalized byte keys
// (internal/tuple) instead of re-walking []Value columns.
//
// The simulated cost model is charged exactly as the per-pair plan
// charges it: per logical pair (in Fig. 4.5 order) the executor charges
// the number of comparisons the per-pair merge-join would have
// performed, computed in O(distinct keys) from per-run group summaries,
// with the same deadline-poll points. Merge step units remain
// Σ(len(l)+len(r)) over logical pairs (eq. 4.4). Only host CPU time and
// allocations change.
//
// Runs whose key columns contain Float attributes fall back to the
// legacy per-pair path: CompareValues orders NaN equal to everything,
// which admits no total byte order (and makes group summaries
// ill-defined), so the cumulative-run transformation is not sound
// there.

import (
	"bytes"

	"tcq/internal/sortx"
	"tcq/internal/tuple"
)

// mergePollInterval is the emit/walk granularity of hard-deadline polls
// inside merge loops. Polls read the clock without charging it, so the
// interval trades interrupt latency against host overhead only.
const mergePollInterval = 1024

// sortedRun is one stage's sorted new sample; keys[i] is the normalized
// key of rank i (nil on the legacy path) and pres[i] its sortx.Prefix
// abbreviation. ts holds the tuples in the same order; a keyed run
// sorted for a count-only node has no tuples, so keyed code takes a
// run's length from keys.
type sortedRun struct {
	ts   []tuple.Tuple
	keys [][]byte
	pres []uint64
}

// cmpKeys compares two normalized keys through their abbreviations.
func cmpKeys(pa uint64, ka []byte, pb uint64, kb []byte) int {
	if pa != pb {
		if pa < pb {
			return -1
		}
		return 1
	}
	return bytes.Compare(ka, kb)
}

// eqKeys reports key equality through the abbreviations.
func eqKeys(pa uint64, ka []byte, pb uint64, kb []byte) bool {
	return pa == pb && bytes.Equal(ka, kb)
}

// keyGroup summarises one equal-key group of a sorted run.
type keyGroup struct {
	key []byte
	pre uint64
	cnt int
}

// groupsOf builds the group summary of a key-sorted run. The summary is
// retained for the query's lifetime, so it is sized exactly (count
// pass, then fill) rather than grown by append.
func groupsOf(keys [][]byte, pres []uint64) []keyGroup {
	if len(keys) == 0 {
		return nil
	}
	n := 1
	for i := 1; i < len(keys); i++ {
		if !eqKeys(pres[i], keys[i], pres[i-1], keys[i-1]) {
			n++
		}
	}
	gs := make([]keyGroup, 0, n)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && eqKeys(pres[j], keys[j], pres[i], keys[i]) {
			j++
		}
		gs = append(gs, keyGroup{key: keys[i], pre: pres[i], cnt: j - i})
		i = j
	}
	return gs
}

// pairComps returns the number of comparisons mergeJoin performs on two
// key-sorted runs with the given group summaries. The count mirrors the
// element-level walk exactly: a group that sorts below the other side's
// current key costs one comparison per element (each element advances
// through the main loop singly); an equal-key pair of groups costs one
// main-loop comparison plus cnt−1 successful extent comparisons per
// side (the failing boundary comparison of the extent scan is executed
// but never counted); the loop stops when either run is exhausted,
// leaving the tail uncompared.
func pairComps(gl, gr []keyGroup) int64 {
	var comps int64
	i, j := 0, 0
	for i < len(gl) && j < len(gr) {
		switch c := cmpKeys(gl[i].pre, gl[i].key, gr[j].pre, gr[j].key); {
		case c < 0:
			comps += int64(gl[i].cnt)
			i++
		case c > 0:
			comps += int64(gr[j].cnt)
			j++
		default:
			comps += 1 + int64(gl[i].cnt-1) + int64(gr[j].cnt-1)
			i++
			j++
		}
	}
	return comps
}

// buildNormKeys encodes the normalized key of every tuple on the given
// columns, packing all keys into one arena allocation. The keys are
// freshly allocated and may be retained indefinitely (the merge sides
// keep their runs' keys for the query lifetime).
func buildNormKeys(ts []tuple.Tuple, s *tuple.Schema, cols []int) [][]byte {
	if len(ts) == 0 {
		return nil
	}
	_, keys := buildNormKeysInto(nil, nil, ts, s, cols)
	return keys
}

// buildNormKeysInto is buildNormKeys over caller-owned scratch: the
// arena and the key-slice header are reused when their capacity
// suffices, so a caller that rebuilds keys every stage (the projection
// dedup) amortizes to zero allocations instead of one arena pair per
// stage. The returned keys alias the returned arena and are valid only
// until the next call with the same scratch — callers that retain keys
// (the merge sides' sorted runs) must use buildNormKeys instead.
func buildNormKeysInto(arena []byte, keys [][]byte, ts []tuple.Tuple, s *tuple.Schema, cols []int) ([]byte, [][]byte) {
	arena, keys = normKeyScratch(arena, keys, len(ts), tuple.NormKeySizeHint(s, cols))
	for i, t := range ts {
		start := len(arena)
		arena = tuple.AppendNormKey(arena, t, cols)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	return arena, keys
}

// batchNormKeys is buildNormKeys over a columnar stage sample: same
// arena layout, byte-identical keys, no tuple materialization or
// interface-value walking. Like buildNormKeys, the keys are freshly
// allocated and safe to retain.
func batchNormKeys(b *tuple.Batch, cols []int) [][]byte {
	if b.Len() == 0 {
		return nil
	}
	_, keys := batchNormKeysInto(nil, nil, b, cols)
	return keys
}

// batchNormKeysInto is buildNormKeysInto over a columnar stage sample:
// scratch reuse with the same aliasing contract.
func batchNormKeysInto(arena []byte, keys [][]byte, b *tuple.Batch, cols []int) ([]byte, [][]byte) {
	n := b.Len()
	arena, keys = normKeyScratch(arena, keys, n, tuple.NormKeySizeHint(b.Schema(), cols))
	for i := 0; i < n; i++ {
		start := len(arena)
		arena = b.AppendNormKey(arena, i, cols)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	return arena, keys
}

// normKeyScratch resets the key-build scratch for n keys of the given
// size hint, reallocating only when capacity is short.
func normKeyScratch(arena []byte, keys [][]byte, n, hint int) ([]byte, [][]byte) {
	if need := n * hint; cap(arena) < need {
		arena = make([]byte, 0, need)
	}
	if cap(keys) < n {
		keys = make([][]byte, n)
	}
	return arena[:0], keys[:n]
}

// cumRef packs the position of one cumulative-run element: the stage
// whose run it belongs to and its index within that run.
type cumRef int64

func makeRef(stage, idx int) cumRef { return cumRef(int64(stage)<<32 | int64(idx)) }
func (r cumRef) stage() int         { return int(int64(r) >> 32) }
func (r cumRef) idx() int           { return int(int32(int64(r))) }

// mergeSide is one side's incremental state: the immutable per-stage
// sorted runs with their group summaries, and the cumulative key order
// over all of them as a pointer-free reference sequence. Within an
// equal-key range of cum, elements are ordered by stage, then by
// position within their stage's run (the order a stage-by-stage stable
// merge produces).
type mergeSide struct {
	runs      []sortedRun
	runGroups [][]keyGroup
	cum       []cumRef
	spare     []cumRef // double-buffer target for the next merge
}

func (s *mergeSide) key(r cumRef) []byte      { return s.runs[r.stage()].keys[r.idx()] }
func (s *mergeSide) pre(r cumRef) uint64      { return s.runs[r.stage()].pres[r.idx()] }
func (s *mergeSide) tup(r cumRef) tuple.Tuple { return s.runs[r.stage()].ts[r.idx()] }

// addRun appends a stage's sorted run and folds it into the cumulative
// order, old elements winning key ties (stage-stable).
func (s *mergeSide) addRun(r sortedRun) {
	stage := len(s.runs)
	s.runs = append(s.runs, r)
	s.runGroups = append(s.runGroups, groupsOf(r.keys, r.pres))
	n := len(r.keys)
	if n == 0 {
		return
	}
	need := len(s.cum) + n
	out := s.spare[:0]
	if cap(out) < need {
		// Overallocate so the buffer survives several generations of
		// the double-buffer swap instead of reallocating every stage.
		out = make([]cumRef, 0, need+need/2)
	}
	i, j := 0, 0
	for i < len(s.cum) && j < n {
		c := s.cum[i]
		if cmpKeys(s.pre(c), s.key(c), r.pres[j], r.keys[j]) <= 0 {
			out = append(out, c)
			i++
		} else {
			out = append(out, makeRef(stage, j))
			j++
		}
	}
	out = append(out, s.cum[i:]...)
	for ; j < n; j++ {
		out = append(out, makeRef(stage, j))
	}
	s.spare = s.cum
	s.cum = out
}

// resetBuckets returns buf resized to n empty buckets, reusing backing
// arrays from previous stages.
func resetBuckets(buf [][]tuple.Tuple, n int) [][]tuple.Tuple {
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	for len(buf) < n {
		buf = append(buf, nil)
	}
	return buf[:n]
}

// countPoll returns a poll function that only counts: the shape bucket
// joins use off the engine goroutine, where an unarmed deadline can
// never expire (polls read no clock) but the poll totals must still
// land in the trace exactly as the serial walk would have counted them.
func countPoll(c *int64) func() error {
	return func() error {
		*c++
		return nil
	}
}

// bucketJoin merge-joins a new run against a side's cumulative run and
// returns the number of matches. When emitting, it appends emit(new,
// cum-element) — or emit(cum-element, new) when newIsLeft is false — to
// buckets[stage of the cum element]. Because an equal-key range of the
// cumulative run is ordered stage-major with within-run order
// preserved, bucket t receives exactly the output the per-pair plan's
// merge-join of (new × run_t) would emit, in the same order: keys
// ascending, left-major within a key.
//
// With a nil emit the walk only counts (a count-only root): the matches
// of an equal-key group are its cross product, and the deadline is
// polled at exactly the walk positions the emission loops poll at, so
// polls, aborts and the count are those of the emitting walk.
//
// emit and poll are parameters so the two bucket joins of a stage can
// run on separate goroutines: each gets its own arena-backed emitter
// and a local poll counter (see advanceCumulative). The walk itself
// reads only immutable run/cum state.
func (n *mergeNode) bucketJoin(nw sortedRun, side *mergeSide, newIsLeft bool, buckets [][]tuple.Tuple,
	emit func(l, r tuple.Tuple) tuple.Tuple, poll func() error) (int, error) {
	cum := side.cum
	nn := len(nw.keys)
	i, j := 0, 0
	ops, matches := 0, 0
	for i < nn && j < len(cum) {
		if ops++; ops%mergePollInterval == 0 {
			if err := poll(); err != nil {
				return 0, err
			}
		}
		c := cmpKeys(nw.pres[i], nw.keys[i], side.pre(cum[j]), side.key(cum[j]))
		if c < 0 {
			i++
			continue
		}
		if c > 0 {
			j++
			continue
		}
		i2 := i + 1
		for i2 < nn && eqKeys(nw.pres[i2], nw.keys[i2], nw.pres[i], nw.keys[i]) {
			i2++
		}
		j2 := j + 1
		for j2 < len(cum) && eqKeys(side.pre(cum[j2]), side.key(cum[j2]), side.pre(cum[j]), side.key(cum[j])) {
			j2++
		}
		g := (i2 - i) * (j2 - j)
		matches += g
		switch {
		case emit == nil:
			// The emission loops below advance ops once per pair and
			// poll at every multiple of the interval.
			for p := (ops/mergePollInterval + 1) * mergePollInterval; p <= ops+g; p += mergePollInterval {
				if err := poll(); err != nil {
					return 0, err
				}
			}
			ops += g
		case newIsLeft:
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if ops++; ops%mergePollInterval == 0 {
						if err := poll(); err != nil {
							return 0, err
						}
					}
					tg := cum[b].stage()
					buckets[tg] = append(buckets[tg], emit(nw.ts[a], side.tup(cum[b])))
				}
			}
		default:
			for b := j; b < j2; b++ {
				tg := cum[b].stage()
				ct := side.tup(cum[b])
				for a := i; a < i2; a++ {
					if ops++; ops%mergePollInterval == 0 {
						if err := poll(); err != nil {
							return 0, err
						}
					}
					buckets[tg] = append(buckets[tg], emit(ct, nw.ts[a]))
				}
			}
		}
		i, j = i2, j2
	}
	return matches, nil
}

// chargePair charges the simulated cost of one logical Fig. 4.5 pair
// exactly as the per-pair plan does: a merge-join of two non-empty runs
// polls the deadline on its first iteration before any comparison (and,
// with no clock charges inside the walk, can only abort there), then
// the comparison count is charged in deadline-polled chunks.
func (n *mergeNode) chargePair(lLen, rLen int, comps int64) error {
	if lLen > 0 && rLen > 0 {
		if err := n.env.checkDeadline(); err != nil {
			return err
		}
	}
	return n.env.chargeChunked(comps, n.env.Store.Costs().TupleCompare)
}

// advanceCumulative runs step 3 of the full-fulfillment plan over the
// cumulative runs: two physical merge-joins, per-pair charges, and —
// when emitting — the Fig. 4.5-ordered output assembly. Returns the
// stage output (nil without emit), its size and the merge step units.
func (n *mergeNode) advanceCumulative(lRun, rRun sortedRun, emit bool) ([]tuple.Tuple, int, float64, error) {
	s := n.stages - 1 // 0-based index of this stage
	nL, nR := len(lRun.keys), len(rRun.keys)

	// Physical work: newL × (cumR ∪ newR), then cumL_old × newR. The two
	// joins read disjoint mutable state (buckets, emit arenas) over
	// immutable runs, and under an unarmed deadline their polls cannot
	// fail and read no clock — so they may run on two goroutines, with
	// each join's polls counted locally and folded back in join order.
	// Under an armed deadline the serial walk is kept: an abort's
	// position depends on the global poll interleaving.
	n.rside.addRun(rRun)
	var bucketsA, bucketsB [][]tuple.Tuple
	var emitA, emitB func(l, r tuple.Tuple) tuple.Tuple
	if emit {
		n.bucketsA = resetBuckets(n.bucketsA, s+1)
		n.bucketsB = resetBuckets(n.bucketsB, s)
		bucketsA, bucketsB, emitA, emitB = n.bucketsA, n.bucketsB, n.emitA, n.emitB
	}
	var countA, countB int
	if n.env.armedDeadline().Armed() {
		var err error
		if countA, err = n.bucketJoin(lRun, &n.rside, true, bucketsA, emitA, n.env.checkDeadline); err != nil {
			return nil, 0, 0, err
		}
		if countB, err = n.bucketJoin(rRun, &n.lside, false, bucketsB, emitB, n.env.checkDeadline); err != nil {
			return nil, 0, 0, err
		}
	} else {
		var pollsA, pollsB int64
		var errA, errB error
		sizeA := nL + len(n.rside.cum)
		sizeB := nR + len(n.lside.cum)
		n.env.runPar(min(sizeA, sizeB), func() {
			countA, errA = n.bucketJoin(lRun, &n.rside, true, bucketsA, emitA, countPoll(&pollsA))
		}, func() {
			countB, errB = n.bucketJoin(rRun, &n.lside, false, bucketsB, emitB, countPoll(&pollsB))
		})
		n.env.DeadlinePolls += pollsA + pollsB
		if errA != nil {
			return nil, 0, 0, errA
		}
		if errB != nil {
			return nil, 0, 0, errB
		}
	}
	n.lside.addRun(lRun)

	// Simulated charges, in the per-pair plan's order.
	lg := n.lside.runGroups[s]
	rg := n.rside.runGroups[s]
	var mergeUnits float64
	for i := 0; i <= s; i++ {
		rLen := len(n.rside.runs[i].keys)
		if err := n.chargePair(nL, rLen, pairComps(lg, n.rside.runGroups[i])); err != nil {
			return nil, 0, 0, err
		}
		mergeUnits += float64(nL + rLen)
	}
	for i := 0; i < s; i++ {
		lLen := len(n.lside.runs[i].keys)
		if err := n.chargePair(lLen, nR, pairComps(n.lside.runGroups[i], rg)); err != nil {
			return nil, 0, 0, err
		}
		mergeUnits += float64(lLen + nR)
	}
	count := countA + countB
	if !emit {
		return nil, count, mergeUnits, nil
	}

	// Assemble the output in pair order: A_0..A_s (newL × run_i of the
	// right side, the new right run last), then B_0..B_{s-1}.
	out := make([]tuple.Tuple, 0, count)
	for _, b := range n.bucketsA {
		out = append(out, b...)
	}
	for _, b := range n.bucketsB {
		out = append(out, b...)
	}
	return out, count, mergeUnits, nil
}

// keyedMergeJoin is the cached-key twin of mergeJoin, used by the
// partial-fulfillment plan's single same-stage pair. Walk, comparison
// accounting, and deadline polling match mergeJoin exactly. Without
// emit it only counts the matches, polling where the emission loop
// would. Returns the output (nil without emit), the match count and the
// comparisons.
func (n *mergeNode) keyedMergeJoin(l, r sortedRun, emit bool) ([]tuple.Tuple, int, int64, error) {
	var out []tuple.Tuple
	var comps int64
	count := 0
	nl, nr := len(l.keys), len(r.keys)
	i, j := 0, 0
	for i < nl && j < nr {
		if (i+j)%16 == 0 {
			if err := n.env.checkDeadline(); err != nil {
				return nil, 0, comps, err
			}
		}
		comps++
		c := cmpKeys(l.pres[i], l.keys[i], r.pres[j], r.keys[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			i2 := i + 1
			for i2 < nl && eqKeys(l.pres[i2], l.keys[i2], l.pres[i], l.keys[i]) {
				comps++
				i2++
			}
			j2 := j + 1
			for j2 < nr && eqKeys(r.pres[j2], r.keys[j2], r.pres[j], r.keys[j]) {
				comps++
				j2++
			}
			g := (i2 - i) * (j2 - j)
			count += g
			if !emit {
				// The emission loop below polls before every
				// mergePollInterval-th pair of the group.
				for e := 0; e < g; e += mergePollInterval {
					if err := n.env.checkDeadline(); err != nil {
						return nil, 0, comps, err
					}
				}
				i, j = i2, j2
				continue
			}
			emitted := 0
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if emitted%mergePollInterval == 0 {
						if err := n.env.checkDeadline(); err != nil {
							return nil, 0, comps, err
						}
					}
					emitted++
					out = append(out, n.emit(l.ts[a], r.ts[b]))
				}
			}
			i, j = i2, j2
		}
	}
	return out, count, comps, nil
}

// advanceLegacy runs step 3 as the literal per-pair plan over retained
// physical runs. It is both the Float-key fallback (no sound normalized
// byte order exists under NaN semantics) and the reference
// implementation the equivalence tests compare against.
func (n *mergeNode) advanceLegacy(lSorted, rSorted []tuple.Tuple) ([]tuple.Tuple, float64, error) {
	n.lruns = append(n.lruns, lSorted)
	n.rruns = append(n.rruns, rSorted)

	var out []tuple.Tuple
	var mergeUnits float64
	mergePair := func(l, r []tuple.Tuple) error {
		matched, comps, err := n.mergeJoin(l, r)
		if err != nil {
			return err
		}
		if err := n.env.chargeChunked(comps, n.env.Store.Costs().TupleCompare); err != nil {
			return err
		}
		mergeUnits += float64(len(l) + len(r))
		out = append(out, matched...)
		return nil
	}
	s := len(n.lruns) - 1
	if n.plan == FullFulfillment {
		// New-left × every right run, then old-left runs × new-right.
		for i := 0; i <= s; i++ {
			if err := mergePair(n.lruns[s], n.rruns[i]); err != nil {
				return nil, 0, err
			}
		}
		for i := 0; i < s; i++ {
			if err := mergePair(n.lruns[i], n.rruns[s]); err != nil {
				return nil, 0, err
			}
		}
	} else {
		if err := mergePair(n.lruns[s], n.rruns[s]); err != nil {
			return nil, 0, err
		}
	}
	return out, mergeUnits, nil
}

// mergeJoin merges two key-sorted runs, emitting n.emit(l, r) for each
// key-equal pair (group-wise cross product for duplicate keys). It
// returns the matches and the number of comparisons performed.
func (n *mergeNode) mergeJoin(l, r []tuple.Tuple) ([]tuple.Tuple, int64, error) {
	var out []tuple.Tuple
	var comps int64
	i, j := 0, 0
	for i < len(l) && j < len(r) {
		if (i+j)%16 == 0 {
			if err := n.env.checkDeadline(); err != nil {
				return nil, comps, err
			}
		}
		comps++
		c := n.keyCmpLR(l[i], r[j])
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the extent of the equal-key groups on both sides.
			i2 := i + 1
			for i2 < len(l) && tuple.Compare(l[i2], l[i], n.lcols, n.lcols) == 0 {
				comps++
				i2++
			}
			j2 := j + 1
			for j2 < len(r) && tuple.Compare(r[j2], r[j], n.rcols, n.rcols) == 0 {
				comps++
				j2++
			}
			// Emit the group cross product, polling the deadline at
			// block granularity: a skewed key can make this loop the
			// longest uninterruptible stretch of a stage.
			emitted := 0
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if emitted%mergePollInterval == 0 {
						if err := n.env.checkDeadline(); err != nil {
							return nil, comps, err
						}
					}
					emitted++
					out = append(out, n.emit(l[a], r[b]))
				}
			}
			i, j = i2, j2
		}
	}
	return out, comps, nil
}

// sortNewRuns sorts both sides' new samples (step 2), caching
// normalized keys on the fast path, and returns the runs plus the
// comparison count to charge. The two sides are independent and
// charge-free, so they may run on two goroutines (runPar) when a
// sub-worker slot is free: the comparison counts are deterministic
// functions of the inputs and are charged by the caller afterwards, so
// scheduling cannot perturb the simulation. Keys are built from the
// columnar stage samples lb/rb when available (byte-identical to the
// tuple path), and a keyed run gathers its tuples only when rows is
// set (an emitting node).
func (n *mergeNode) sortNewRuns(newL, newR []tuple.Tuple, lb, rb *tuple.Batch, rows bool) (lRun, rRun sortedRun, comps int64) {
	if n.keyed {
		var lc, rc int64
		n.env.runPar(min(sideLen(newL, lb), sideLen(newR, rb)), func() {
			lRun, lc = keyedRun(newL, lb, n.left.Schema(), n.lcols, rows)
		}, func() {
			rRun, rc = keyedRun(newR, rb, n.right.Schema(), n.rcols, rows)
		})
		return lRun, rRun, lc + rc
	}
	var lres, rres sortx.Result
	n.env.runPar(min(len(newL), len(newR)), func() {
		lres = sortx.Sort(newL, func(a, b tuple.Tuple) int {
			return tuple.Compare(a, b, n.lcols, n.lcols)
		}, 0)
	}, func() {
		rres = sortx.Sort(newR, func(a, b tuple.Tuple) int {
			return tuple.Compare(a, b, n.rcols, n.rcols)
		}, 0)
	})
	return sortedRun{ts: lres.Sorted}, sortedRun{ts: rres.Sorted},
		lres.Comparisons + rres.Comparisons
}

// keyedRun argsorts one side's new sample by its normalized keys,
// preferring the columnar stage sample when there is one, and gathers
// the tuples into sorted order when rows is set. The keys end up
// retained in the side's sortedRun for the rest of the query, so this
// deliberately uses the allocating builders — pooling here would let a
// later stage overwrite an earlier run's keys.
func keyedRun(ts []tuple.Tuple, b *tuple.Batch, s *tuple.Schema, cols []int, rows bool) (sortedRun, int64) {
	var keys [][]byte
	if b != nil {
		keys = batchNormKeys(b, cols)
	} else {
		keys = buildNormKeys(ts, s, cols)
	}
	res := sortx.SortKeyedIdx(keys, 0)
	run := sortedRun{keys: res.Keys, pres: res.Pres}
	if rows && len(res.Perm) > 0 {
		run.ts = make([]tuple.Tuple, len(res.Perm))
		for i, j := range res.Perm {
			run.ts[i] = ts[j]
		}
	}
	return run, res.Comparisons
}
