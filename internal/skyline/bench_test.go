package skyline

import (
	"testing"

	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/xrand"
)

func BenchmarkSkyline2DAnti10K(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 10000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(ds)
	}
}

func BenchmarkSkylineHDAnti10K(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 10000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(ds)
	}
}

func BenchmarkSkylineHDCorr10K(b *testing.B) {
	ds := dataset.Correlated(xrand.New(1), 10000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(ds)
	}
}

func BenchmarkRestrictedSkylineCone(b *testing.B) {
	ds := dataset.Anticorrelated(xrand.New(1), 2000, 3)
	cone, err := funcspace.WeakRanking(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeRestricted(ds, cone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKSkybandWeather is the depth-32 k-skyband of SimWeather
// n=20,000, the pruning step of HDRRM's top-32 scoring pass.
func BenchmarkKSkybandWeather(b *testing.B) {
	ds := dataset.SimWeather(xrand.New(2), 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSkybandOrdered(ds, 32)
	}
}
