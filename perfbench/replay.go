package main

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/rankregret/rankregret/internal/algo2d"
	"github.com/rankregret/rankregret/internal/algohd"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/skyline"
	"github.com/rankregret/rankregret/internal/topk"
	"github.com/rankregret/rankregret/internal/xrand"
)

// algohdOptions maps engine options to the algorithm's own, the way the
// engine does before it calls algohd.
func algohdOptions(o engine.Options) algohd.Options {
	ho := algohd.DefaultOptions()
	if o.Gamma > 0 {
		ho.Gamma = o.Gamma
	}
	if o.Delta > 0 {
		ho.Delta = o.Delta
	}
	if o.Samples > 0 {
		ho.M = o.Samples
	}
	switch {
	case o.MaxSamples > 0:
		ho.MaxM = o.MaxSamples
	case o.MaxSamples < 0:
		ho.MaxM = 0
	}
	ho.Seed = o.Seed
	ho.Space = o.Space
	ho.Parallelism = o.Parallelism
	return ho
}

// replay is the outcome of replaying one HDRRM solve from public calls.
type replay struct {
	answer answer
	vs     *algohd.VecSet
	// depths lists the committed top-list depth after every scoring pass,
	// in the order the passes ran.
	depths []int
	probes int
}

// replayHDRRM repeats HDRRM's search (Algorithm 3 with the improved binary
// search) through the package's public entry points: build the vector set,
// then per probe extend the top lists and run ASMS, doubling k until the
// answer fits the budget and then binary searching below it. Each call
// runs inside a span of rec (nil records nothing), so the scoring pass,
// which HDRRM otherwise runs lazily inside ASMS, gets a span of its own.
func replayHDRRM(ctx context.Context, rec *recorder, ds *dataset.Dataset, r int, opts engine.Options) (*replay, error) {
	defer rec.begin("replay.hdrrm")()
	ho := algohdOptions(opts)
	n, d := ds.N(), ds.Dim()
	space := ho.Space
	var err error
	var vs *algohd.VecSet
	func() {
		defer rec.begin("algohd.BuildVecSetCtx")()
		vs, err = algohd.BuildVecSetCtx(ctx, ds, space, ho.EffectiveGamma(), ho.SampleSize(n, d, r), xrand.New(ho.Seed))
	}()
	if err != nil {
		return nil, err
	}
	vs.SetParallelism(ho.Parallelism)
	basis := uniqueSorted(ds.Basis())
	if len(basis) > r {
		return nil, fmt.Errorf("replay: budget %d below basis size %d", r, len(basis))
	}
	rp := &replay{vs: vs}
	probe := func(k int) ([]int, error) {
		rp.probes++
		var err error
		func() {
			defer rec.begin("algohd.EnsureTopKCtx")()
			err = vs.EnsureTopKCtx(ctx, k)
		}()
		if err != nil {
			return nil, err
		}
		tops, err := vs.TopsCtx(ctx, k)
		if err != nil {
			return nil, err
		}
		if depth := len(tops[0]); len(rp.depths) == 0 || rp.depths[len(rp.depths)-1] != depth {
			rp.depths = append(rp.depths, depth)
		}
		defer rec.begin("algohd.ASMSCtx")()
		return algohd.ASMSCtx(ctx, ds, k, basis, vs)
	}
	var fit []int
	k := 1
	for {
		q, err := probe(k)
		if err != nil {
			return nil, err
		}
		if len(q) <= r || k >= n {
			fit = q
			break
		}
		k = min(2*k, n)
	}
	low, high, best := k/2+1, k, k
	for low < high {
		mid := (low + high) / 2
		q, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if len(q) <= r {
			fit, best, high = q, mid, mid
		} else {
			low = mid + 1
		}
	}
	rp.answer = answer{ids: fit, k: best}
	return rp, nil
}

func uniqueSorted(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return slices.Compact(out)
}

// stageSplit is the part of a replay that cannot be timed from outside the
// scoring pass: the k-skyband and the two kernels inside it.
type stageSplit struct {
	kskybandS, utilitiesS, selectS float64
	skybandFrac                    float64 // candidate rows / n at the final depth
	abandoned                      bool
	tuplesScored                   float64
	listsMatch                     bool // the re-run pass reproduced the committed lists
}

// vecTileSize mirrors the scoring pass's tile: 16 vectors, halved until a
// tile's scores fit in 2^20 floats.
func vecTileSize(n int) int {
	t := 16
	for t > 1 && t*n > 1<<20 {
		t /= 2
	}
	return t
}

// splitStages repeats, outside the replay's spans, the work the scoring
// passes did: the k-skyband at every depth reached (abandoned, as in the
// scoring pass, once it prunes nothing), and the final-depth pass through
// dataset.UtilitiesBatch and topk.SelectBatch with each kernel timed.
func splitStages(ctx context.Context, rec *recorder, ds *dataset.Dataset, rp *replay) (stageSplit, error) {
	n := ds.N()
	var ss stageSplit
	var candIDs []int
	cand := ds
	for _, depth := range rp.depths {
		cand, candIDs = ds, nil
		if depth >= n || ss.abandoned {
			ss.tuplesScored += float64(rp.vs.Len() * n)
			continue
		}
		end := rec.begin("dup.skyline.KSkyband")
		t0 := time.Now()
		ids := skyline.KSkyband(ds, depth)
		ss.kskybandS += time.Since(t0).Seconds()
		end()
		if len(ids) == 0 || len(ids) >= n {
			ss.abandoned = true
		} else {
			candIDs = ids
			cand = ds.Subset(ids)
		}
		ss.tuplesScored += float64(rp.vs.Len() * cand.N())
	}
	ss.skybandFrac = float64(cand.N()) / float64(n)

	depth := rp.depths[len(rp.depths)-1]
	tops, err := rp.vs.TopsCtx(ctx, depth)
	if err != nil {
		return ss, err
	}
	cand.ColumnMajor()
	tile := vecTileSize(cand.N())
	vecs := rp.vs.Vecs
	var scores [][]float64
	var scratch []int
	ss.listsMatch = true
	for lo := 0; lo < len(vecs); lo += tile {
		hi := min(lo+tile, len(vecs))
		end := rec.begin("dup.dataset.UtilitiesBatch")
		t0 := time.Now()
		scores = cand.UtilitiesBatch(vecs[lo:hi], scores)
		t1 := time.Now()
		end()
		end = rec.begin("dup.topk.SelectBatch")
		var lists [][]int
		lists, scratch = topk.SelectBatch(scores, candIDs, depth, scratch)
		t2 := time.Now()
		end()
		ss.utilitiesS += t1.Sub(t0).Seconds()
		ss.selectS += t2.Sub(t1).Seconds()
		for i, l := range lists {
			if !slices.Equal(l, tops[lo+i][:len(l)]) {
				ss.listsMatch = false
			}
		}
	}
	return ss, nil
}

// traceQuery is the traced run's extra work for one repeat of a query:
// the replay inside spans, compared with the engine's cold answer, then the
// duplicated stages outside them.
func (lr *libraryRun) traceQuery(ctx context.Context, q *query, st *queryState, cold answer) error {
	first := len(lr.rec.spans)
	layers := map[string]float64{}
	switch q.algo {
	case engine.AlgoHDRRM:
		var rp *replay
		_, err := op(func() error {
			var err error
			rp, err = replayHDRRM(ctx, lr.rec, q.ds, q.r, q.opts)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: replay: %w", q.name, err)
		}
		if !rp.answer.equal(cold) {
			st.ok = false
		}
		ss, err := splitStages(ctx, lr.rec, q.ds, rp)
		if err != nil {
			return fmt.Errorf("%s: stage split: %w", q.name, err)
		}
		if !ss.listsMatch {
			st.ok = false
		}
		layers["skyline.kskyband_s"] = ss.kskybandS
		layers["dataset.utilities_batch_s"] = ss.utilitiesS
		layers["topk.select_batch_s"] = ss.selectS
		st.counts = map[string]float64{
			"algohd.tuples_scored": ss.tuplesScored,
			"algohd.score_passes":  float64(len(rp.depths)),
			"algohd.depth":         float64(rp.depths[len(rp.depths)-1]),
			"algohd.probes":        float64(rp.probes),
			"algohd.k":             float64(rp.answer.k),
			"algohd.vectors":       float64(rp.vs.Len()),
			"skyline.skyband_frac": ss.skybandFrac,
			"skyline.abandoned":    b2f(ss.abandoned),
		}
	case engine.AlgoTwoDRRM:
		var res algo2d.Result
		_, err := op(func() error {
			defer lr.rec.begin("replay.2drrm")()
			defer lr.rec.begin("algo2d.TwoDRRMCtx")()
			var err error
			if q.space != nil {
				res, err = algo2d.TwoDRRMRestrictedCtx(ctx, q.ds, q.r, q.space)
			} else {
				res, err = algo2d.TwoDRRMCtx(ctx, q.ds, q.r)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: 2drrm: %w", q.name, err)
		}
		if !(answer{ids: res.IDs, k: res.RankRegret}).equal(cold) {
			st.ok = false
		}
	}
	spans := lr.rec.spans[first:]
	self := selfTimes(spans)
	for _, s := range spans {
		switch s.Name {
		case "replay.hdrrm", "replay.2drrm":
			layers["trace.cold_s"] += s.dur()
			layers["trace.unattributed_s"] += self[s.ID]
		case "algohd.BuildVecSetCtx":
			layers["algohd.vecset_build_s"] += self[s.ID]
		case "algohd.EnsureTopKCtx":
			layers["algohd.ensure_s"] += self[s.ID]
		case "algohd.ASMSCtx":
			layers["algohd.asms_s"] += self[s.ID]
		case "algo2d.TwoDRRMCtx":
			layers["algo2d.twodrrm_s"] += self[s.ID]
		}
	}
	// The top-list extension is the k-skyband plus the scoring pass; the
	// duplicated skyband call says how much of it was the skyband.
	if _, ok := layers["algohd.ensure_s"]; ok {
		layers["algohd.score_s"] = layers["algohd.ensure_s"] - layers["skyline.kskyband_s"]
	}
	for name, v := range layers {
		st.times.layers[name] = append(st.times.layers[name], v)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
