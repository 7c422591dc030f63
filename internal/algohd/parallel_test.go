package algohd

import (
	"reflect"
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Parallelism is a latency knob, never a result knob: HDRRM, HDRRR, and the
// ablation variants must produce bit-identical results at every worker
// count. Run with -race this also exercises the tile hand-off in the
// scoring pass.
func TestParallelismBitIdentical(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxM = 3000
	w3, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sets := []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"anti", dataset.Anticorrelated(xrand.New(11), 600, 3)},
		{"weather", dataset.SimWeather(xrand.New(1), 800)},
	}
	for _, s := range sets {
		type outcome struct {
			rrm, rrr, variant Result
		}
		var base *outcome
		for _, par := range []int{1, 4, 16} {
			o := opts
			o.Parallelism = par
			var got outcome
			var err error
			if got.rrm, err = HDRRM(s.ds, 8, o); err != nil {
				t.Fatalf("%s par=%d HDRRM: %v", s.name, par, err)
			}
			if got.rrr, err = HDRRR(s.ds, 30, o); err != nil {
				t.Fatalf("%s par=%d HDRRR: %v", s.name, par, err)
			}
			ro := o
			if s.ds.Dim() == 3 {
				// Exercise the restricted-space (RRRM) path too.
				ro.Space = w3
			}
			if got.variant, err = HDRRMVariant(s.ds, 8, ro, Variant{NoBasis: true}); err != nil {
				t.Fatalf("%s par=%d variant: %v", s.name, par, err)
			}
			if base == nil {
				base = &got
				continue
			}
			if !reflect.DeepEqual(got, *base) {
				t.Errorf("%s: parallelism %d result differs from parallelism 1:\n got %+v\nwant %+v",
					s.name, par, got, *base)
			}
		}
	}
}

// The fused score-and-select path (topk.ScoreSelect over sum-ordered rows)
// must give the same lists at every worker count, and the same lists as
// scoring each vector against the whole dataset: over a pruned skyband
// (weather), over the unpruned dataset once the skyband is abandoned
// (anticorrelated d=4), through every unrolled width and the generic one,
// and across the switch to the buffered quickselect path at full depth.
func TestScorePassFusedParallelism(t *testing.T) {
	sets := []struct {
		name   string
		ds     *dataset.Dataset
		pruned bool // the skyband is kept, not abandoned
	}{
		{"weather", dataset.SimWeather(xrand.New(1), 3000), true},
		{"anti4", dataset.Anticorrelated(xrand.New(2), 1500, 4), false},
		{"indep2", dataset.Independent(xrand.New(3), 900, 2), true},
		{"indep3", dataset.Independent(xrand.New(4), 900, 3), true},
		{"anti6", dataset.Anticorrelated(xrand.New(5), 700, 6), false},
	}
	for _, s := range sets {
		n := s.ds.N()
		var lists [2][][]int
		for i, par := range []int{1, 4} {
			vs, err := BuildVecSet(s.ds, nil, 3, 200, xrand.New(7))
			if err != nil {
				t.Fatal(err)
			}
			vs.SetParallelism(par)
			for _, k := range []int{1, 8, 33} {
				vs.EnsureTopK(k)
			}
			if tc := vs.cache(); (tc.skyOrd != nil) != s.pruned || (tc.fullOrd != nil) == s.pruned {
				t.Fatalf("%s: fused layouts built: skyband %v, whole dataset %v; want pruned=%v", s.name, tc.skyOrd != nil, tc.fullOrd != nil, s.pruned)
			}
			for v := range vs.Vecs {
				lists[i] = append(lists[i], vs.Top(v, 33))
			}
			vs.EnsureTopK(n) // full depth: the buffered path
			for v, u := range vs.Vecs {
				if want := topk.TopK(s.ds, u, n, nil); !reflect.DeepEqual(vs.Top(v, n), want) {
					t.Fatalf("%s par=%d: full-depth list of vector %d differs from TopK", s.name, par, v)
				}
				if want := topk.TopK(s.ds, u, 33, nil); !reflect.DeepEqual(lists[i][v], want) {
					t.Fatalf("%s par=%d: depth-33 list of vector %d = %v, want %v", s.name, par, v, lists[i][v], want)
				}
			}
		}
		if !reflect.DeepEqual(lists[0], lists[1]) {
			t.Fatalf("%s: parallelism 4 lists differ from parallelism 1", s.name)
		}
	}
}
