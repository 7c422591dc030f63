package dataset

import (
	"testing"
	"testing/quick"

	"github.com/rankregret/rankregret/internal/xrand"
)

func absInt(x int) int {
	if x < 0 {
		if x == -x {
			return 0
		}
		return -x
	}
	return x
}

// Property: UtilitiesBatch is bit-identical to per-vector Utilities for
// every vector of the tile — both accumulate attribute terms in the same
// order, so the blocked kernel is a pure layout change.
func TestUtilitiesBatchBitIdentical(t *testing.T) {
	f := func(seed int64, nn, dd, bb int) bool {
		n := absInt(nn)%300 + 1
		d := absInt(dd)%6 + 1
		rng := xrand.New(seed)
		ds := Independent(rng, n, d)
		us := make([][]float64, absInt(bb)%7+1)
		for b := range us {
			us[b] = make([]float64, d)
			for j := range us[b] {
				us[b][j] = rng.Float64() * 3
			}
		}
		got := ds.UtilitiesBatch(us, nil)
		for b, u := range us {
			want := ds.Utilities(u, nil)
			for i := range want {
				if got[b][i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The kernel must span tuple-tile boundaries correctly.
func TestUtilitiesBatchCrossesTileBoundary(t *testing.T) {
	rng := xrand.New(3)
	ds := Independent(rng, utilitiesTupleTile+37, 3)
	u := []float64{0.2, 1.5, 0.7}
	got := ds.UtilitiesBatch([][]float64{u}, nil)[0]
	want := ds.Utilities(u, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Mutation must invalidate the column-major mirror, like the fingerprint.
func TestColumnMajorInvalidatedByMutation(t *testing.T) {
	ds := MustFromRows([][]float64{{1, 2}, {3, 4}})
	u := []float64{1, 1}
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; got[0] != 3 || got[1] != 7 {
		t.Fatalf("pre-mutation scores = %v, want [3 7]", got)
	}
	ds.Append([]float64{5, 6})
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; len(got) != 3 || got[2] != 11 {
		t.Fatalf("post-Append scores = %v, want [3 7 11]", got)
	}
	ds.Negate(0)
	if got := ds.UtilitiesBatch([][]float64{u}, nil)[0]; got[0] != 1 {
		t.Fatalf("post-Negate scores = %v, want [1 1 1]", got)
	}
}

// Buffer reuse: passing the previous dst back must not change results.
func TestUtilitiesBatchReusesDst(t *testing.T) {
	rng := xrand.New(5)
	ds := Independent(rng, 50, 4)
	us := [][]float64{{1, 0, 0, 0}, {0.3, 0.3, 0.3, 0.1}}
	dst := ds.UtilitiesBatch(us, nil)
	again := ds.UtilitiesBatch(us, dst)
	for b := range us {
		want := ds.Utilities(us[b], nil)
		for i := range want {
			if again[b][i] != want[i] {
				t.Fatalf("reused dst score [%d][%d] = %v, want %v", b, i, again[b][i], want[i])
			}
		}
	}
}

// Property: UtilitiesAt scores each listed tuple exactly as Utility does,
// for every unrolled width and the generic one, and reuses dst.
func TestUtilitiesAtMatchesUtility(t *testing.T) {
	rng := xrand.New(7)
	var dst []float64
	for d := 1; d <= 6; d++ {
		ds := Independent(rng, 40, d)
		u := make([]float64, d)
		for j := range u {
			u[j] = rng.Float64()*2 - 0.5
		}
		ids := []int{39, 0, 17, 17, 3}
		dst = ds.UtilitiesAt(u, ids, dst)
		if len(dst) != len(ids) {
			t.Fatalf("d=%d: %d scores for %d ids", d, len(dst), len(ids))
		}
		for k, i := range ids {
			if want := ds.Utility(u, i); dst[k] != want {
				t.Fatalf("d=%d: score of tuple %d = %v, want %v", d, i, dst[k], want)
			}
		}
	}
}
