package topk

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/xrand"
)

// tiedRows returns n rows of d attributes quantized to few levels in
// [-1, 1], so exact score ties and negative values are both common.
func tiedRows(rng *xrand.Rand, n, d, levels int) *dataset.Dataset {
	ds := dataset.New(d)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = float64(rng.Intn(2*levels+1)-levels) / float64(levels)
		}
		ds.Append(row)
	}
	return ds
}

// Property: ScoreSelect over rows in any streaming order, carrying arbitrary
// (gapped, permuted) tuple ids, equals Select over Utilities of the same
// rows held in ascending-id order — same ids, same order, ties included —
// for d = 1..6, both sides of Select's 8k < n regime switch, k = 1 and
// k = n.
func TestScoreSelectAgreesWithSelect(t *testing.T) {
	rng := xrand.New(1)
	var h []Entry
	for trial := 0; trial < 600; trial++ {
		d := trial%6 + 1
		n := rng.Intn(200) + 1
		levels := rng.Intn(4) + 1
		full := tiedRows(rng, n, d, levels)

		// Remapped ids: an ascending, gapped id space, streamed in a random
		// order or in attribute-sum order.
		ids := make([]int, n)
		next := 0
		for i := range ids {
			next += 1 + rng.Intn(3)
			ids[i] = next
		}
		perm := rng.Perm(n)
		if trial%2 == 0 {
			perm = skyline.SumOrder(full, nil)
		}
		streamIDs := make([]int, n)
		for i, p := range perm {
			streamIDs[i] = ids[p]
		}
		stream := full.Subset(perm)

		u := make([]float64, d)
		for j := range u {
			u[j] = float64(rng.Intn(5)-1) / 2 // zero and negative weights too
		}
		scores := full.Utilities(u, nil)
		for _, k := range []int{1, n / 8, n/8 + 1, n/8 + 2, rng.Intn(n) + 1, n, n + 3} {
			want := Select(scores, ids, k, nil)
			var got []int
			got, h = ScoreSelect(nil, stream, streamIDs, u, k, h)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d d=%d k=%d): ScoreSelect = %v, want %v", trial, n, d, k, got, want)
			}
			// nil ids are the identity over the stream's own positions.
			got, h = ScoreSelect(nil, full, nil, u, k, h)
			if want := Select(scores, nil, k, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d d=%d k=%d): identity ScoreSelect = %v, want %v", trial, n, d, k, got, want)
			}
		}
	}
}

// ScoreSelect appends after dst's contents and never writes past a capped
// destination's length it was handed.
func TestScoreSelectAppends(t *testing.T) {
	ds := dataset.MustFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}})
	slab := []int{-1, -1, -1, -1, -1}
	got, _ := ScoreSelect(slab[1:1:3], ds, nil, []float64{1, 1}, 2, nil)
	if !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("ScoreSelect = %v, want [2 0]", got)
	}
	if !reflect.DeepEqual(slab, []int{-1, 2, 0, -1, -1}) {
		t.Fatalf("slab = %v: wrote outside its window", slab)
	}
	prefix := []int{7}
	if got, _ := ScoreSelect(prefix, ds, nil, []float64{1, 1}, 0, nil); !reflect.DeepEqual(got, prefix) {
		t.Fatalf("k=0 ScoreSelect = %v, want the untouched prefix", got)
	}
}

// weatherBand is the benchmark shape of HDRRM's scoring pass on SimWeather
// n=20,000: the depth-32 k-skyband (about 1,750 rows) in sum order, and a
// set of sampled directions.
func weatherBand(b *testing.B) ([]int, *dataset.Dataset, [][]float64) {
	ds := dataset.SimWeather(xrand.New(2), 20000)
	ids, rows := skyline.KSkybandOrdered(ds, 32)
	if ids == nil {
		b.Fatal("skyband abandoned")
	}
	rng := xrand.New(3)
	us := make([][]float64, 256)
	for i := range us {
		us[i] = rng.UnitOrthantDirection(4)
	}
	return ids, rows, us
}

// BenchmarkScoreSelectWeather times the fused kernel per utility vector at
// the weather shape (n ≈ 1,750 sum-ordered rows, k = 32, d = 4).
func BenchmarkScoreSelectWeather(b *testing.B) {
	ids, rows, us := weatherBand(b)
	var h []Entry
	dst := make([]int, 0, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, h = ScoreSelect(dst[:0], rows, ids, us[i%len(us)], 32, h)
	}
	b.ReportMetric(float64(rows.N()), "rows")
}

// BenchmarkSelectBufferedWeather is the unfused reference on the same
// shape: dataset.UtilitiesBatch over 16-vector tiles of the ascending-id
// rows, then SelectBatch. Reported per utility vector.
func BenchmarkSelectBufferedWeather(b *testing.B) {
	ids, _, us := weatherBand(b)
	asc := slices.Sorted(slices.Values(ids))
	ds := dataset.SimWeather(xrand.New(2), 20000).Subset(asc)
	var scores [][]float64
	var scratch []int
	const tile = 16
	b.ResetTimer()
	for done := 0; done < b.N; done += tile {
		lo := done % len(us)
		scores = ds.UtilitiesBatch(us[lo:lo+min(tile, b.N-done)], scores)
		_, scratch = SelectBatch(scores, asc, 32, scratch)
	}
}

func ExampleScoreSelect() {
	ds := dataset.MustFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	top, _ := ScoreSelect(nil, ds, []int{10, 20, 30}, []float64{0.5, 0.5}, 2, nil)
	fmt.Println(top)
	// Output: [30 10]
}
