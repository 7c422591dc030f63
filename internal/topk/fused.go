package topk

import (
	"slices"

	"github.com/rankregret/rankregret/internal/dataset"
)

// Entry is one (score, id) slot of ScoreSelect's k-entry heap. Callers only
// hold a slice of them as reusable scratch.
type Entry struct {
	score float64
	id    int
}

// ScoreSelect appends to dst the ids of the k best rows of rows under u,
// best first, under the package's deterministic order (score descending,
// equal scores to the lower id). ids[i] is the tuple id of row i (nil means
// the identity) and may come in any order: ties break on these ids, so the
// result equals Select(scores, sortedIDs, k) over the same rows held in
// ascending-id order. h is optional heap scratch, returned possibly grown.
//
// It fuses scoring with selection. Each row's dot product is accumulated in
// registers in the same ascending-attribute order as dataset.Utilities, so
// scores are bit-identical to the buffered path. It is then offered to an
// inline min-heap of (score, id) entries under the exact beats comparator.
// Nothing is buffered per row, and the final order comes from popping the
// heap. Rows stream in storage order; laying them out strongest-first for
// typical utilities (skyline.SumOrder) settles the heap threshold early, so
// most rows cost one dot product and one comparison.
func ScoreSelect(dst []int, rows *dataset.Dataset, ids []int, u []float64, k int, h []Entry) ([]int, []Entry) {
	n, d := rows.N(), rows.Dim()
	k = min(k, n)
	if k <= 0 {
		return dst, h
	}
	if cap(h) < k {
		h = make([]Entry, k)
	}
	h = h[:k]
	vals := rows.RowMajor()
	u = u[:d]
	// The first k rows seed the heap.
	for i := 0; i < k; i++ {
		var s float64
		for j, v := range vals[i*d : (i+1)*d] {
			s += u[j] * v
		}
		h[i] = Entry{s, idAt(ids, i)}
		siftUp(h, i)
	}
	switch d {
	case 2:
		scan2(h, vals, ids, u, k)
	case 3:
		scan3(h, vals, ids, u, k)
	case 4:
		scan4(h, vals, ids, u, k)
	default:
		scanAny(h, vals, ids, u, k)
	}
	// Popping the worst entry k times yields the list back to front.
	base := len(dst)
	dst = slices.Grow(dst, k)[:base+k]
	for m := k; m > 0; m-- {
		dst[base+m-1] = h[0].id
		h[0] = h[m-1]
		siftDown(h[:m-1], 0)
	}
	return dst, h
}

// The scanN loops offer rows [from, n) to the full heap h. They differ only
// in the unrolled dot product, whose terms are added in ascending attribute
// order like scanAny's. The heap root is cached so a row that does not beat
// it costs no loads through the heap; the s >= root.score pre-test is one
// compare that fails for all of those rows, NaN scores included, as under
// beats.

func scan2(h []Entry, vals []float64, ids []int, u []float64, from int) {
	u0, u1 := u[0], u[1]
	root := h[0]
	for i, r := from, vals[2*from:]; len(r) >= 2; i, r = i+1, r[2:] {
		s := u0*r[0] + u1*r[1]
		if s >= root.score && (s > root.score || idAt(ids, i) < root.id) {
			root = replaceRoot(h, Entry{s, idAt(ids, i)})
		}
	}
}

func scan3(h []Entry, vals []float64, ids []int, u []float64, from int) {
	u0, u1, u2 := u[0], u[1], u[2]
	root := h[0]
	for i, r := from, vals[3*from:]; len(r) >= 3; i, r = i+1, r[3:] {
		s := u0*r[0] + u1*r[1] + u2*r[2]
		if s >= root.score && (s > root.score || idAt(ids, i) < root.id) {
			root = replaceRoot(h, Entry{s, idAt(ids, i)})
		}
	}
}

func scan4(h []Entry, vals []float64, ids []int, u []float64, from int) {
	u0, u1, u2, u3 := u[0], u[1], u[2], u[3]
	root := h[0]
	for i, r := from, vals[4*from:]; len(r) >= 4; i, r = i+1, r[4:] {
		s := u0*r[0] + u1*r[1] + u2*r[2] + u3*r[3]
		if s >= root.score && (s > root.score || idAt(ids, i) < root.id) {
			root = replaceRoot(h, Entry{s, idAt(ids, i)})
		}
	}
}

func scanAny(h []Entry, vals []float64, ids []int, u []float64, from int) {
	d := len(u)
	root := h[0]
	for i, r := from, vals[d*from:]; len(r) >= d; i, r = i+1, r[d:] {
		var s float64
		for j, v := range r[:d] {
			s += u[j] * v
		}
		if s >= root.score && (s > root.score || idAt(ids, i) < root.id) {
			root = replaceRoot(h, Entry{s, idAt(ids, i)})
		}
	}
}

func idAt(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// replaceRoot evicts the heap's worst entry for e and returns the new root.
func replaceRoot(h []Entry, e Entry) Entry {
	h[0] = e
	siftDown(h, 0)
	return h[0]
}

// worse is the heap order: the worse of two entries sits nearer the root.
func worse(a, b Entry) bool { return beats(b.score, b.id, a.score, a.id) }

func siftUp(h []Entry, c int) {
	for c > 0 {
		p := (c - 1) / 2
		if !worse(h[c], h[p]) {
			return
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

func siftDown(h []Entry, p int) {
	for {
		c := 2*p + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && worse(h[r], h[c]) {
			c = r
		}
		if !worse(h[c], h[p]) {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}
