package sortx

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tcq/internal/tuple"
)

func intTuples(vals ...int64) []tuple.Tuple {
	out := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		out[i] = tuple.Tuple{v}
	}
	return out
}

func byFirst(a, b tuple.Tuple) int { return tuple.CompareValues(a[0], b[0]) }

func TestSortEmptyAndSingle(t *testing.T) {
	r := Sort(nil, byFirst, 4)
	if len(r.Sorted) != 0 || r.Runs != 0 || r.Comparisons != 0 {
		t.Errorf("empty sort: %+v", r)
	}
	r = Sort(intTuples(7), byFirst, 4)
	if len(r.Sorted) != 1 || r.Runs != 1 {
		t.Errorf("single sort: %+v", r)
	}
}

func TestSortSingleRun(t *testing.T) {
	r := Sort(intTuples(3, 1, 2), byFirst, 10)
	if r.Runs != 1 {
		t.Errorf("runs = %d, want 1", r.Runs)
	}
	if !IsSorted(r.Sorted, byFirst) {
		t.Errorf("not sorted: %v", r.Sorted)
	}
	if r.Comparisons <= 0 {
		t.Error("comparisons should be counted")
	}
}

func TestSortMultiRunMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	in := intTuples(vals...)
	r := Sort(in, byFirst, 64)
	if r.Runs != 16 {
		t.Errorf("runs = %d, want 16", r.Runs)
	}
	if len(r.Sorted) != 1000 {
		t.Fatalf("lost tuples: %d", len(r.Sorted))
	}
	if !IsSorted(r.Sorted, byFirst) {
		t.Error("multi-run output not sorted")
	}
	// Input must be untouched.
	if in[0][0].(int64) != vals[0] {
		t.Error("Sort must not modify its input")
	}
	// Multiset preserved: count occurrences.
	count := map[int64]int{}
	for _, v := range vals {
		count[v]++
	}
	for _, tp := range r.Sorted {
		count[tp[0].(int64)]--
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("value %d count off by %d", v, c)
		}
	}
}

func TestSortDefaultRunSize(t *testing.T) {
	in := intTuples(make([]int64, 2*DefaultRunSize+1)...)
	r := Sort(in, byFirst, 0)
	if r.Runs != 3 {
		t.Errorf("default run size: runs = %d, want 3", r.Runs)
	}
}

func TestSortPropertyMatchesReference(t *testing.T) {
	f := func(raw []int16, runSizeRaw uint8) bool {
		runSize := int(runSizeRaw%32) + 1
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		r := Sort(intTuples(vals...), byFirst, runSize)
		if len(r.Sorted) != len(vals) {
			return false
		}
		return IsSorted(r.Sorted, byFirst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortComparisonsScaleNLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) []tuple.Tuple {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63()
		}
		return intTuples(vals...)
	}
	small := Sort(mk(1000), byFirst, 128).Comparisons
	large := Sort(mk(4000), byFirst, 128).Comparisons
	// 4x input should cost between ~4x and ~7x comparisons (n log n).
	if large < 3*small || large > 9*small {
		t.Errorf("comparison growth suspicious: %d -> %d", small, large)
	}
}

func TestMergeSorted(t *testing.T) {
	a := intTuples(1, 3, 5)
	b := intTuples(2, 3, 6)
	out, comps := MergeSorted(a, b, byFirst)
	want := []int64{1, 2, 3, 3, 5, 6}
	if len(out) != len(want) {
		t.Fatalf("merged %d tuples", len(out))
	}
	for i, w := range want {
		if out[i][0].(int64) != w {
			t.Fatalf("merged = %v", out)
		}
	}
	if comps <= 0 || comps > int64(len(a)+len(b)) {
		t.Errorf("comparisons = %d", comps)
	}
	// Empty sides.
	out, _ = MergeSorted(nil, b, byFirst)
	if len(out) != 3 {
		t.Errorf("merge with empty left = %v", out)
	}
	out, _ = MergeSorted(a, nil, byFirst)
	if len(out) != 3 {
		t.Errorf("merge with empty right = %v", out)
	}
}

func TestMergeSortedStability(t *testing.T) {
	// Ties must take the left element first.
	a := []tuple.Tuple{{int64(1), "left"}}
	b := []tuple.Tuple{{int64(1), "right"}}
	out, _ := MergeSorted(a, b, byFirst)
	if out[0][1] != "left" || out[1][1] != "right" {
		t.Errorf("merge not stable: %v", out)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil, byFirst) || !IsSorted(intTuples(1), byFirst) {
		t.Error("trivial slices are sorted")
	}
	if !IsSorted(intTuples(1, 1, 2), byFirst) {
		t.Error("non-strict order is sorted")
	}
	if IsSorted(intTuples(2, 1), byFirst) {
		t.Error("descending should not be sorted")
	}
}

// kernelKeys generates n keys of one shape: 8-byte keys from few or
// many distinct values (ties), keys longer than 8 bytes sharing their
// first 8 bytes (prefix ties that the full-key fallback must decide),
// and short keys whose zero-padded prefixes collide ("a" vs "a\x00").
func kernelKeys(rng *rand.Rand, n int, shape string) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		switch shape {
		case "8-byte-ties":
			keys[i] = []byte{0, 0, 0, 0, 0, 0, 0, byte(rng.Intn(4))}
		case "8-byte":
			k := make([]byte, 8)
			rng.Read(k)
			keys[i] = k
		case "long":
			k := []byte("prefix__")
			for j := rng.Intn(6); j > 0; j-- {
				k = append(k, byte('a'+rng.Intn(3)))
			}
			keys[i] = k
		case "short":
			k := []byte{'a'}
			for j := rng.Intn(4); j > 0; j-- {
				k = append(k, byte(rng.Intn(2)))
			}
			keys[i] = k
		}
	}
	return keys
}

// TestKernelMatchesSortCore pins the keyed sort kernel to the generic
// sortCore it specialises: over ties, 8-byte keys, keys longer than 8
// bytes and short zero-padded keys, at sizes around the insertion-sort
// block (20) and the run size (512), both must return the same
// permutation, the same comparison count and the same run count — the
// comparison count is charged to the simulated clock, so any deviation
// would change every simulated timeline.
func TestKernelMatchesSortCore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []string{"8-byte-ties", "8-byte", "long", "short"} {
		for _, n := range []int{0, 1, 19, 20, 21, 511, 512, 513, 3000} {
			for _, runSize := range []int{20, 512} {
				keys := kernelKeys(rng, n, shape)
				idx := make([]int32, n)
				for i := range idx {
					idx[i] = int32(i)
				}
				wantPerm, wantComps, wantRuns := sortCore(idx, func(a, b int32) int {
					return bytes.Compare(keys[a], keys[b])
				}, runSize)
				got := SortKeyedIdx(keys, runSize)
				if got.Comparisons != wantComps || got.Runs != wantRuns || !slices.Equal(got.Perm, wantPerm) {
					t.Fatalf("%s n=%d run=%d: kernel (comps %d, runs %d) != sortCore (comps %d, runs %d), perm equal %v",
						shape, n, runSize, got.Comparisons, got.Runs, wantComps, wantRuns, slices.Equal(got.Perm, wantPerm))
				}
				for i, j := range got.Perm {
					if !bytes.Equal(got.Keys[i], keys[j]) || got.Pres[i] != Prefix(keys[j]) {
						t.Fatalf("%s n=%d run=%d: rank %d keys/prefixes not gathered by Perm", shape, n, runSize, i)
					}
				}
			}
		}
	}
}

// TestPrefixOrder checks the abbreviation contract the kernel relies
// on: unequal prefixes order exactly as bytes.Compare orders the keys.
func TestPrefixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		a := kernelKeys(rng, 1, []string{"8-byte", "long", "short"}[i%3])[0]
		b := kernelKeys(rng, 1, []string{"8-byte", "long", "short"}[(i/3)%3])[0]
		pa, pb := Prefix(a), Prefix(b)
		if pa == pb {
			continue
		}
		if c := bytes.Compare(a, b); (pa < pb) != (c < 0) {
			t.Fatalf("Prefix(%q)=%x vs Prefix(%q)=%x disagrees with bytes.Compare=%d", a, pa, b, pb, c)
		}
	}
}
