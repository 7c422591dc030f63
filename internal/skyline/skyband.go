package skyline

import (
	"cmp"
	"slices"

	"github.com/rankregret/rankregret/internal/dataset"
)

// alwaysBeats reports whether tuple a outranks tuple b under EVERY non-zero
// non-negative utility vector, given the repository's deterministic
// tie-break (higher score wins; equal scores go to the lower index). That
// holds in exactly two cases:
//
//   - a >= b on every attribute and ida < idb: a's score is never below b's,
//     and any tie breaks toward a;
//   - a > b strictly on every attribute: a's score is strictly higher for
//     any u >= 0 with at least one positive weight, regardless of ids.
//
// Classical Pareto dominance is NOT sufficient here: a tuple can dominate a
// lower-indexed one yet lose the tie on a utility vector with zero weight on
// every differing attribute.
func alwaysBeats(a, b []float64, ida, idb int) bool {
	strictAll := true
	for j := range a {
		if a[j] < b[j] {
			return false
		}
		if a[j] <= b[j] {
			strictAll = false
		}
	}
	return strictAll || ida < idb
}

// countBeaters counts the kept rows (packed row-major in kv, with ids
// keptIDs) that always-beat row, stopping at k. It also returns how many
// kept rows it compared, which is what the scan budget charges.
func countBeaters(kv []float64, keptIDs []int, row []float64, id, k int) (beaters, scanned int) {
	d := len(row)
	for s, sid := range keptIDs {
		if alwaysBeats(kv[s*d:(s+1)*d:(s+1)*d], row, sid, id) {
			if beaters++; beaters >= k {
				return beaters, s + 1
			}
		}
	}
	return beaters, len(keptIDs)
}

// countBeaters4 is countBeaters for four attributes, with a branch-free
// pre-test of a >= row on every attribute: most pairs fail it on an
// unpredictable attribute, where alwaysBeats' early exits mispredict.
func countBeaters4(kv []float64, keptIDs []int, row []float64, id, k int) (beaters, scanned int) {
	b0, b1, b2, b3 := row[0], row[1], row[2], row[3]
	for s, sid := range keptIDs {
		a := kv[4*s : 4*s+4 : 4*s+4]
		if b2i(a[0] >= b0)&b2i(a[1] >= b1)&b2i(a[2] >= b2)&b2i(a[3] >= b3) == 0 {
			continue
		}
		if alwaysBeats(a, row, sid, id) {
			if beaters++; beaters >= k {
				return beaters, s + 1
			}
		}
	}
	return beaters, len(keptIDs)
}

func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// kSkybandBudget caps the pairwise comparisons one KSkyband call may spend.
// The sort-filter scan is O(n * |skyband|) in the worst case (mutually
// incomparable data keeps everything), and the skyband is a pure pruning
// accelerator — when it would cost more than it can save, giving up and
// returning nil ("no pruning") is the right answer.
const kSkybandBudget = 1 << 26

// KSkyband returns, in ascending order, the ids of every tuple that fewer
// than k other tuples always-beat (see alwaysBeats) — the only tuples that
// can appear in ANY top-k result Phi_k(u, D) over the non-negative orthant,
// for this repository's deterministic tie-break. Restricting a top-k
// selection universe or a rank-k cover-candidate set to the k-skyband is
// therefore a pure optimization: results are provably unchanged, for the
// full space and every restricted sub-space alike.
//
// It returns nil (meaning "prune nothing") when k >= n, or when the scan
// exhausts its comparison budget — adversarially incomparable data (e.g.
// points on a sphere octant) has a skyband of nearly everything, and
// computing that exactly is all cost and no pruning.
func KSkyband(ds *dataset.Dataset, k int) []int {
	ids, _ := KSkybandOrdered(ds, k)
	if ids == nil {
		return nil
	}
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return ids
}

// KSkybandOrdered is KSkyband in scan order: the band's ids sorted by
// (attribute sum desc, id asc), together with a dataset of their rows packed
// in that same order. Both are nil when KSkyband would return nil.
//
// The scan visits tuples in SumOrder, which every always-beater precedes its
// victims in, and counts beaters among kept tuples only: a discarded beater
// implies k kept beaters by transitivity, so the count is exact. Kept rows
// are packed contiguously as they are admitted, so the inner loop streams
// one slice instead of chasing scattered rows. O(n log n + n * |skyband| *
// d), bounded by the budget.
func KSkybandOrdered(ds *dataset.Dataset, k int) ([]int, *dataset.Dataset) {
	n, d := ds.N(), ds.Dim()
	if k < 1 || k >= n {
		return nil, nil
	}
	budget := kSkybandBudget
	kept := dataset.New(d)
	keptIDs := make([]int, 0, 2*k)
	for _, r := range sumSorted(ds, nil) {
		id, row := r.id, ds.Row(r.id)
		var beaters, scanned int
		if d == 4 {
			beaters, scanned = countBeaters4(kept.RowMajor(), keptIDs, row, id, k)
		} else {
			beaters, scanned = countBeaters(kept.RowMajor(), keptIDs, row, id, k)
		}
		if budget -= scanned; budget < 0 {
			return nil, nil
		}
		if beaters < k {
			kept.Append(row)
			keptIDs = append(keptIDs, id)
		}
	}
	return keptIDs, kept
}

// SumOrder returns ids (nil means every tuple of ds) sorted by attribute sum
// descending, equal sums to the lower id. Under any non-negative utility a
// tuple can only be always-beaten by tuples earlier in this order, and
// strong tuples tend to come first, which is what lets a streaming top-k
// scan settle its threshold early.
func SumOrder(ds *dataset.Dataset, ids []int) []int {
	recs := sumSorted(ds, ids)
	out := make([]int, len(recs))
	for i, r := range recs {
		out[i] = r.id
	}
	return out
}

type sumRec struct {
	sum float64
	id  int
}

// sumSorted is SumOrder keeping each id's attribute sum.
func sumSorted(ds *dataset.Dataset, ids []int) []sumRec {
	m := len(ids)
	if ids == nil {
		m = ds.N()
	}
	recs := make([]sumRec, m)
	for i := range recs {
		id := i
		if ids != nil {
			id = ids[i]
		}
		var s float64
		for _, v := range ds.Row(id) {
			s += v
		}
		recs[i] = sumRec{s, id}
	}
	slices.SortFunc(recs, func(a, b sumRec) int {
		switch {
		case a.sum > b.sum:
			return -1
		case a.sum < b.sum:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})
	return recs
}
