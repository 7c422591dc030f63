package topk

import "slices"

// better reports whether position a should rank before position b in a score
// slice, delegating to the package's beats comparator so the two can never
// drift. Positions double as the deterministic tie-break, which is why
// Select requires any id remapping to be ascending — position order and id
// order then agree.
func better(scores []float64, a, b int) bool {
	return beats(scores[a], a, scores[b], b)
}

// Select returns the ids of the k best entries of scores, best first, under
// the package's deterministic order (score descending, id ascending). ids
// maps score positions to tuple ids and must be strictly ascending; nil
// means the identity (position i is tuple i). scratch is an optional
// reusable index buffer (pass the previous call's to avoid allocation; it
// must not alias ids).
//
// Select agrees exactly with TopK — same set, same order, including
// tie-breaks — but selects via quickselect in O(n + k log k) instead of
// per-element heap churn, which is what makes scoring whole tiles of utility
// vectors worthwhile.
func Select(scores []float64, ids []int, k int, scratch []int) []int {
	out, _ := SelectScratch(scores, ids, k, scratch)
	return out
}

// SelectScratch is Select returning the (possibly grown) scratch buffer so
// tight loops can reuse it across calls.
//
// Two regimes, chosen by k/n and both producing the identical deterministic
// order: for small k a read-only scan against a concrete inline min-heap
// (one compare per element, no container/heap interface dispatch, no index
// writes), and for k a sizable fraction of n a quickselect over an index
// permutation (the scan's heap churn would approach n log n there).
func SelectScratch(scores []float64, ids []int, k int, scratch []int) ([]int, []int) {
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, scratch
	}
	var top []int
	if 8*k < n {
		if cap(scratch) < 2*k {
			scratch = make([]int, max(2*k, 64))
		}
		top = scanSelect(scores, k, scratch[:k])
	} else {
		if cap(scratch) < n {
			scratch = make([]int, n)
		}
		perm := scratch[:n]
		for i := range perm {
			perm[i] = i
		}
		quickselectTop(scores, perm, k)
		top = perm[:k]
	}
	slices.SortFunc(top, func(a, b int) int {
		switch {
		case better(scores, a, b):
			return -1
		case better(scores, b, a):
			return 1
		}
		return 0
	})
	out := make([]int, k)
	if ids == nil {
		copy(out, top)
	} else {
		for i, p := range top {
			out[i] = ids[p]
		}
	}
	return out, scratch
}

// scanSelect streams scores once against a size-k min-heap held in heapIDs
// (worst candidate at the root: lowest score, ties to the higher index). It
// returns the heap slice holding the k best positions, unordered. Elements
// not beating the root — the overwhelming majority for k << n — cost one
// comparison and no writes.
func scanSelect(scores []float64, k int, heapIDs []int) []int {
	h := heapIDs[:0]
	// worse is the heap order: the worse of two positions sits nearer the
	// root, i.e. the inverse of better.
	worse := func(a, b int) bool { return better(scores, b, a) }
	for i := 0; i < k; i++ {
		// Sift up.
		h = append(h, i)
		c := i
		for c > 0 {
			p := (c - 1) / 2
			if !worse(h[c], h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
	}
	// Cache the root so the overwhelmingly common "not a candidate" case is
	// one or two comparisons with no loads through the heap.
	rootScore, rootID := scores[h[0]], h[0]
	for i := k; i < len(scores); i++ {
		s := scores[i]
		if s < rootScore || (s == rootScore && i > rootID) {
			continue
		}
		// Replace the root and sift down.
		h[0] = i
		p := 0
		for {
			c := 2*p + 1
			if c >= k {
				break
			}
			if r := c + 1; r < k && worse(h[r], h[c]) {
				c = r
			}
			if !worse(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
		rootScore, rootID = scores[h[0]], h[0]
	}
	return h
}

// SelectBatch converts a tile of score rows — as produced by
// dataset.UtilitiesBatch — into per-row top-k id lists, best first. ids
// follows the Select contract. scratch is optional and is returned (possibly
// grown) so a loop over tiles reuses one selection buffer throughout.
func SelectBatch(rows [][]float64, ids []int, k int, scratch []int) ([][]int, []int) {
	out := make([][]int, len(rows))
	for b, row := range rows {
		out[b], scratch = SelectScratch(row, ids, k, scratch)
	}
	return out, scratch
}

// quickselectTop partially orders perm so perm[:k] holds the k best
// positions (in arbitrary order). The order is strict and total (positions
// are distinct), so the selected set is unique and deterministic no matter
// how pivots fall.
func quickselectTop(scores []float64, perm []int, k int) {
	lo, hi := 0, len(perm)-1
	for lo < hi {
		p := partitionTop(scores, perm, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionTop runs a better-first Lomuto partition of perm[lo:hi+1] around
// a median-of-three pivot and returns the pivot's final index.
func partitionTop(scores []float64, perm []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Move the median of (lo, mid, hi) to hi so sorted and reverse-sorted
	// inputs stay near O(n).
	if better(scores, perm[mid], perm[lo]) {
		perm[mid], perm[lo] = perm[lo], perm[mid]
	}
	if better(scores, perm[hi], perm[lo]) {
		perm[hi], perm[lo] = perm[lo], perm[hi]
	}
	if better(scores, perm[mid], perm[hi]) {
		perm[mid], perm[hi] = perm[hi], perm[mid]
	}
	pivot := perm[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if better(scores, perm[j], pivot) {
			perm[i], perm[j] = perm[j], perm[i]
			i++
		}
	}
	perm[i], perm[hi] = perm[hi], perm[i]
	return i
}
