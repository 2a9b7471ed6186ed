// Package sortx implements the external merge sort used by the sample
// executors (step 2 of the paper's Intersect/Join/Project algorithms,
// Figs. 4.4, 4.6, 4.7; cost formula 4.3: C·n·log n + C·n + C).
//
// The sort is run-based: the input is cut into bounded runs, each run is
// sorted in memory, and the runs are merged with a k-way heap merge —
// the classical external sorting structure, even though the "files" are
// in-memory slices in this reproduction. Comparison counts are returned
// so callers can charge CPU cost to the session clock in one step.
//
// Sort orders tuples with a caller comparator through the generic
// sortCore; SortKeyed and SortKeyedIdx order by cached normalized byte
// keys (internal/tuple) through a specialised copy of the same
// algorithms (kernel.go). All entry points perform identical
// comparator-call sequences for equivalent orderings, so charged
// comparison counts are independent of the entry point used.
package sortx

import (
	"container/heap"
	"slices"

	"tcq/internal/tuple"
)

// DefaultRunSize is the default number of tuples per initial run,
// modelling the sort buffer of the prototype DBMS.
const DefaultRunSize = 512

// Cmp orders two tuples; negative means a < b.
type Cmp func(a, b tuple.Tuple) int

// Result reports the outcome of an external sort.
type Result struct {
	Sorted      []tuple.Tuple // sorted copy of the input
	Comparisons int64         // comparisons performed (for cost charging)
	Runs        int           // number of initial runs generated
}

// counter tallies comparator invocations without a capturing closure
// per run: one counter per sort call, its method bound once.
type counter[T any] struct {
	cmp func(a, b T) int
	n   int64
}

func (c *counter[T]) compare(a, b T) int {
	c.n++
	return c.cmp(a, b)
}

// sortCore externally sorts items (copied into a contiguous run arena)
// and returns the sorted slice, the comparison count and the number of
// initial runs. The input slice is not modified.
func sortCore[T any](items []T, cmp func(a, b T) int, runSize int) ([]T, int64, int) {
	n := len(items)
	if n == 0 {
		return nil, 0, 0
	}
	c := &counter[T]{cmp: cmp}
	counting := c.compare

	// Phase 1: run generation. Runs are contiguous chunks of one arena,
	// each sorted in place.
	arena := make([]T, n)
	copy(arena, items)
	nRuns := (n + runSize - 1) / runSize
	runs := make([][]T, 0, nRuns)
	for lo := 0; lo < n; lo += runSize {
		hi := min(lo+runSize, n)
		run := arena[lo:hi:hi]
		slices.SortStableFunc(run, counting)
		runs = append(runs, run)
	}
	if len(runs) == 1 {
		return arena, c.n, 1
	}

	// Phase 2: k-way heap merge.
	out := make([]T, 0, n)
	h := &mergeHeap[T]{cmp: counting}
	for i, r := range runs {
		h.items = append(h.items, mergeItem[T]{run: i, item: r[0]})
	}
	heap.Init(h)
	pos := make([]int, len(runs))
	for h.Len() > 0 {
		it := h.items[0]
		out = append(out, it.item)
		pos[it.run]++
		if p := pos[it.run]; p < len(runs[it.run]) {
			h.items[0].item = runs[it.run][p]
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, c.n, len(runs)
}

// Sort externally sorts ts with the comparator, using runs of at most
// runSize tuples (DefaultRunSize when runSize <= 0). The input slice is
// not modified.
func Sort(ts []tuple.Tuple, cmp Cmp, runSize int) Result {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	sorted, comps, runs := sortCore(ts, cmp, runSize)
	return Result{Sorted: sorted, Comparisons: comps, Runs: runs}
}

// KeyedResult reports the outcome of a key-cached external sort: the
// sorted tuples with their normalized keys aligned index-for-index.
type KeyedResult struct {
	Sorted      []tuple.Tuple
	Keys        [][]byte
	Comparisons int64
	Runs        int
}

// SortKeyed externally sorts ts by the cached normalized keys (keys[i]
// is ts[i]'s key; len(keys) must equal len(ts)), comparing keys with
// bytes.Compare. The comparator-call sequence — and therefore the
// comparison count — is identical to Sort with a comparator that orders
// tuples the way the keys do. Neither input slice is modified.
func SortKeyed(ts []tuple.Tuple, keys [][]byte, runSize int) KeyedResult {
	r := SortKeyedIdx(keys, runSize)
	outT := make([]tuple.Tuple, len(r.Perm))
	for i, j := range r.Perm {
		outT[i] = ts[j]
	}
	return KeyedResult{Sorted: outT, Keys: r.Keys, Comparisons: r.Comparisons, Runs: r.Runs}
}

// IdxResult reports the outcome of an argsort by cached keys: the
// sorting permutation (Perm[i] is the input index of sorted rank i)
// plus the keys and their Prefix abbreviations gathered into sorted
// order.
type IdxResult struct {
	Perm        []int32
	Keys        [][]byte
	Pres        []uint64
	Comparisons int64
	Runs        int
}

// SortKeyedIdx argsorts the normalized keys and returns the sorting
// permutation, for callers that gather columnar data (or nothing at
// all) instead of row tuples. It runs the specialised kernel of
// kernel.go, whose comparator-call sequence — and so its Perm,
// Comparisons and Runs — is identical to sortCore's over the same keys
// with bytes.Compare. The input slice is not modified.
func SortKeyedIdx(keys [][]byte, runSize int) IdxResult {
	if runSize <= 0 {
		runSize = DefaultRunSize
	}
	n := len(keys)
	if n == 0 {
		return IdxResult{}
	}
	s := keySorter{keys: keys, pres: make([]uint64, n)}
	for i, k := range keys {
		s.pres[i] = Prefix(k)
	}
	perm, runs := s.sort(runSize)
	outK := make([][]byte, n)
	outP := make([]uint64, n)
	for i, j := range perm {
		outK[i] = keys[j]
		outP[i] = s.pres[j]
	}
	return IdxResult{Perm: perm, Keys: outK, Pres: outP, Comparisons: s.comps, Runs: runs}
}

type mergeItem[T any] struct {
	run  int
	item T
}

type mergeHeap[T any] struct {
	items []mergeItem[T]
	cmp   func(a, b T) int
}

func (h *mergeHeap[T]) Len() int           { return len(h.items) }
func (h *mergeHeap[T]) Less(i, j int) bool { return h.cmp(h.items[i].item, h.items[j].item) < 0 }
func (h *mergeHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap[T]) Push(x interface{}) { h.items = append(h.items, x.(mergeItem[T])) }
func (h *mergeHeap[T]) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// MergeSorted merges two sorted slices into one sorted slice, returning
// the merged slice and the number of comparisons. Neither input is
// modified. Ties take the left element first (stable).
func MergeSorted(a, b []tuple.Tuple, cmp Cmp) ([]tuple.Tuple, int64) {
	out := make([]tuple.Tuple, 0, len(a)+len(b))
	var comparisons int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		comparisons++
		if cmp(a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, comparisons
}

// IsSorted reports whether ts is sorted under cmp.
func IsSorted(ts []tuple.Tuple, cmp Cmp) bool {
	for i := 1; i < len(ts); i++ {
		if cmp(ts[i-1], ts[i]) > 0 {
			return false
		}
	}
	return true
}
