package sortx

import (
	"bytes"
	"encoding/binary"
)

// The keyed sort kernel: SortKeyedIdx's specialisation of sortCore.
//
// Every comparison a sort performs is charged to the simulated clock
// (Comparisons → TupleCompare charges), so the kernel is not free to
// pick a faster algorithm: it must make exactly the comparator calls
// sortCore makes — same operands, same order — or every simulated
// timeline changes. It is therefore a line-for-line copy of the
// algorithms sortCore runs (slices.SortStableFunc's insertion-sort
// blocks + SymMerge for each run, then container/heap's Init/Fix/Pop
// for the k-way merge), specialised to int32 indices with the
// comparator inlined as a method instead of a closure behind an
// interface. Keys are compared through their 8-byte big-endian
// prefixes first and fall back to bytes.Compare only on a prefix tie,
// which cannot change a comparison's sign (see Prefix). The equivalence
// with sortCore — Perm, Comparisons and Runs — is pinned by
// TestKernelMatchesSortCore.

// Prefix abbreviates a normalized key to its first eight bytes as a
// big-endian integer, zero-padded. Zero padding is order-preserving
// against bytes.Compare (no key byte sorts below 0x00), so unequal
// prefixes decide the comparison and equal prefixes fall back to the
// full keys.
func Prefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// keySorter orders int32 indices into keys, counting comparisons.
type keySorter struct {
	keys  [][]byte
	pres  []uint64 // pres[i] = Prefix(keys[i])
	comps int64
}

// less reports keys[a] < keys[b]; it is the kernel's only comparator
// call and stands for one `cmp(a, b) < 0` of the generic algorithms.
func (s *keySorter) less(a, b int32) bool {
	s.comps++
	if pa, pb := s.pres[a], s.pres[b]; pa != pb {
		return pa < pb
	}
	return bytes.Compare(s.keys[a], s.keys[b]) < 0
}

// sort externally sorts the identity permutation of s.keys in runs of
// runSize and returns the sorted permutation and the run count.
func (s *keySorter) sort(runSize int) ([]int32, int) {
	n := len(s.keys)
	arena := make([]int32, n)
	for i := range arena {
		arena[i] = int32(i)
	}
	nRuns := (n + runSize - 1) / runSize
	for lo := 0; lo < n; lo += runSize {
		s.stable(arena[lo:min(lo+runSize, n)])
	}
	if nRuns == 1 {
		return arena, 1
	}
	return s.mergeRuns(arena, runSize, nRuns), nRuns
}

// stable is slices.SortStableFunc (stableCmpFunc) over data.
func (s *keySorter) stable(data []int32) {
	n := len(data)
	blockSize := 20
	a, b := 0, blockSize
	for b <= n {
		s.insertionSort(data, a, b)
		a = b
		b += blockSize
	}
	s.insertionSort(data, a, n)
	for blockSize < n {
		a, b = 0, 2*blockSize
		for b <= n {
			s.symMerge(data, a, a+blockSize, b)
			a = b
			b += 2 * blockSize
		}
		if m := a + blockSize; m < n {
			s.symMerge(data, a, m, n)
		}
		blockSize *= 2
	}
}

func (s *keySorter) insertionSort(data []int32, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && s.less(data[j], data[j-1]); j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// symMerge merges data[a:m] and data[m:b] (SymMerge, Kim & Kutzner),
// exactly as slices' symMergeCmpFunc does.
func (s *keySorter) symMerge(data []int32, a, m, b int) {
	if m-a == 1 {
		i, j := m, b
		for i < j {
			h := int(uint(i+j) >> 1)
			if s.less(data[h], data[a]) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := a; k < i-1; k++ {
			data[k], data[k+1] = data[k+1], data[k]
		}
		return
	}
	if b-m == 1 {
		i, j := a, m
		for i < j {
			h := int(uint(i+j) >> 1)
			if !s.less(data[m], data[h]) {
				i = h + 1
			} else {
				j = h
			}
		}
		for k := m; k > i; k-- {
			data[k], data[k-1] = data[k-1], data[k]
		}
		return
	}
	mid := int(uint(a+b) >> 1)
	n := mid + m
	var start, r int
	if m > mid {
		start = n - b
		r = mid
	} else {
		start = a
		r = m
	}
	p := n - 1
	for start < r {
		c := int(uint(start+r) >> 1)
		if !s.less(data[p-c], data[c]) {
			start = c + 1
		} else {
			r = c
		}
	}
	end := n - start
	if start < m && m < end {
		rotate(data, start, m, end)
	}
	if a < start && start < mid {
		s.symMerge(data, a, start, mid)
	}
	if mid < end && end < b {
		s.symMerge(data, mid, end, b)
	}
}

// rotate swaps the consecutive blocks data[a:m] and data[m:b].
func rotate(data []int32, a, m, b int) {
	i, j := m-a, b-m
	for i != j {
		if i > j {
			swapRange(data, m-i, m, j)
			i -= j
		} else {
			swapRange(data, m-i, m+j-i, i)
			j -= i
		}
	}
	swapRange(data, m-i, m, i)
}

func swapRange(data []int32, a, b, n int) {
	for i := 0; i < n; i++ {
		data[a+i], data[b+i] = data[b+i], data[a+i]
	}
}

// headItem is one run's head in the merge heap.
type headItem struct {
	run  int32
	item int32
}

// mergeRuns k-way merges the sorted runs of arena through a binary
// heap, with container/heap's Init, Fix(0) and Pop sift sequences.
func (s *keySorter) mergeRuns(arena []int32, runSize, nRuns int) []int32 {
	n := len(arena)
	out := make([]int32, 0, n)
	h := make([]headItem, nRuns)
	pos := make([]int32, nRuns)
	for r := range h {
		h[r] = headItem{run: int32(r), item: arena[r*runSize]}
		pos[r] = int32(r * runSize)
	}
	for i := nRuns/2 - 1; i >= 0; i-- {
		s.down(h, i, nRuns)
	}
	for len(h) > 0 {
		it := h[0]
		out = append(out, it.item)
		r := int(it.run)
		pos[r]++
		if p := int(pos[r]); p < min((r+1)*runSize, n) {
			h[0].item = arena[p]
			// heap.Fix(h, 0): at the root, up never compares.
			s.down(h, 0, len(h))
		} else {
			last := len(h) - 1
			h[0], h[last] = h[last], h[0]
			s.down(h, 0, last)
			h = h[:last]
		}
	}
	return out
}

// down is container/heap's down over the run heads.
func (s *keySorter) down(h []headItem, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(h[j2].item, h[j1].item) {
			j = j2
		}
		if !s.less(h[j].item, h[i].item) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
