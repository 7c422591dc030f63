package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/obs"
	"github.com/rankregret/rankregret/internal/xrand"
)

// Every solve of the library workloads runs with this parallelism: one
// scoring goroutine keeps a cold solve off the second core, so two solves
// of identical work take the same time whatever else the box is doing.
const solveParallelism = 1

// evalSamples is the number of directions each evaluation draws, the same
// for the library workloads and the daemon's /v1/evaluate requests.
const evalSamples = 2000

const evalSeed = 7

// query is one fixed entry of a library workload's query list.
type query struct {
	name  string
	ds    *dataset.Dataset
	r     int
	algo  string
	opts  engine.Options
	space funcspace.Space // evaluation space; nil = the full orthant
	// fresh holds the row batches the fresh operations append, one batch
	// each, to the previous version, before solving the new version with the
	// engine that made the cold solve, which repairs its vector set from the
	// previous version's. HDRRM queries only: 2DRRM has no incremental path, so its
	// fresh solve would repeat the cold one.
	fresh [][][]float64
}

func (q *query) evalSpace() funcspace.Space {
	if q.space != nil {
		return q.space
	}
	return funcspace.NewFull(q.ds.Dim())
}

// scale holds the sizes of the generated inputs. The self-test runs every
// workload at the tiny scale.
type scale struct {
	weatherN, anticorrHDN, anticorr2DN, maxSamples, poolN int
}

var scales = map[string]scale{
	"full": {weatherN: 20000, anticorrHDN: 2000, anticorr2DN: 20000, maxSamples: 12000, poolN: 5000},
	"tiny": {weatherN: 800, anticorrHDN: 300, anticorr2DN: 800, maxSamples: 400, poolN: 200},
}

// Fixed generator seeds of the datasets' values. --seed permutes the rows
// (see permuted): every tuple id changes with the seed, while the geometry,
// and with it the search depth HDRRM reaches and the amount of work, stays
// the same. Fresh values per seed would not: on SimWeather the final k of
// a full-space query moves between 20 and 57 across generator seeds, and k
// above 32 costs a third scoring pass, which triples a solve.
const (
	weatherValueSeed  = 2
	anticorrValueSeed = 1
	freshValueSeed    = 3
	untieSeed         = 4
)

// permuted returns base with its rows in a seed-determined order.
func permuted(base *dataset.Dataset, seed int64) *dataset.Dataset {
	return base.Subset(xrand.New(seed).Perm(base.N()))
}

// untied adds to every value a fixed random amount below 1e-6. SimWeather
// clamps to [0, 1], which leaves exact ties (416 of 20,000 rows share a
// temperature with another row), and ties are broken by tuple id: under a
// permutation they change the top lists, and k of a full-space r=10 solve
// then ranges over 14..24 across seeds, doubling the search's cost. With
// the ties split, k is the same under every permutation.
func untied(ds *dataset.Dataset) *dataset.Dataset {
	rng := xrand.New(untieSeed)
	out := dataset.New(ds.Dim())
	row := make([]float64, ds.Dim())
	for i := 0; i < ds.N(); i++ {
		for j, v := range ds.Row(i) {
			row[j] = v + 1e-6*rng.Float64()
		}
		out.Append(row)
	}
	return out
}

// weatherValues is the SimWeather data every weather-shaped workload uses,
// and weatherPool the rows their appends draw from.
func weatherValues(n int) *dataset.Dataset {
	return untied(dataset.SimWeather(xrand.New(weatherValueSeed), n))
}

func weatherPool(n int) *dataset.Dataset {
	return untied(dataset.SimWeather(xrand.New(freshValueSeed), n))
}

func hdOpts(sc scale, seed int64, spec string) engine.Options {
	return engine.Options{Seed: seed, MaxSamples: sc.maxSamples, Parallelism: solveParallelism, SpaceKey: spec}
}

// withSpace parses spec ("" = full space) into the query's solve and
// evaluation space, as the daemon does for a request's space field.
func withSpace(q query, spec string) (query, error) {
	if spec == "" {
		return q, nil
	}
	sp, err := cliutil.ParseSpace(spec, q.ds.Dim())
	if err != nil {
		return q, err
	}
	q.opts.Space = sp
	q.opts.SpaceKey = spec
	q.space = sp
	return q, nil
}

// freshBatches returns the i-th query's fresh row batches:
// freshBatchesPerQuery batches of 5 rows, from a pool of the same
// distribution as the data. They do not depend on the seed, so the repairs
// do the same work under every seed. A fresh operation takes tens of
// milliseconds, short enough for one burst of CPU steal to double it, so
// each pass runs several.
func freshBatches(pool *dataset.Dataset, i int) [][][]float64 {
	batches := make([][][]float64, freshBatchesPerQuery)
	for b := range batches {
		rows := make([][]float64, 5)
		for j := range rows {
			rows[j] = append([]float64(nil), pool.Row((5*(freshBatchesPerQuery*i+b)+j)%pool.N())...)
		}
		batches[b] = rows
	}
	return batches
}

// appended returns ds's successor version with rows appended.
func appended(ds *dataset.Dataset, rows [][]float64) *dataset.Dataset {
	next := ds.Snapshot()
	for _, row := range rows {
		next.Append(row)
	}
	return next
}

// weatherQueries is the weather workload: cold HDRRM solves on SimWeather
// (n=20,000, d=4, r=10). Two full-space sample seeds and three weak-ranking
// spaces; with an odd count the median query is one of the list.
func weatherQueries(sc scale, seed int64) ([]query, error) {
	ds := permuted(weatherValues(sc.weatherN), seed)
	pool := weatherPool(sc.poolN)
	specs := []struct {
		name string
		seed int64
		spec string
	}{
		{"full-s1", 1, ""},
		{"full-s2", 2, ""},
		{"weak1", 1, "weak:1"},
		{"weak2", 1, "weak:2"},
		{"weak3", 1, "weak:3"},
	}
	var qs []query
	for i, s := range specs {
		q := query{name: s.name, ds: ds, r: 10, algo: engine.AlgoHDRRM, opts: hdOpts(sc, s.seed, s.spec),
			fresh: freshBatches(pool, i)}
		q, err := withSpace(q, s.spec)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// anticorrQueries is the anticorr workload: cold HDRRM on anticorrelated
// d=4 data, where the k-skyband covers nearly all of n and is abandoned,
// and exact 2DRRM on anticorrelated d=2 data.
func anticorrQueries(sc scale, seed int64) ([]query, error) {
	hd := permuted(dataset.Anticorrelated(xrand.New(anticorrValueSeed), sc.anticorrHDN, 4), seed)
	twoD := permuted(dataset.Anticorrelated(xrand.New(anticorrValueSeed), sc.anticorr2DN, 2), seed)
	pool := dataset.Anticorrelated(xrand.New(freshValueSeed), sc.poolN, 4)
	var qs []query
	for i, s := range []struct {
		name string
		spec string
	}{{"hd-full", ""}, {"hd-weak1", "weak:1"}, {"hd-weak2", "weak:2"}} {
		q := query{name: s.name, ds: hd, r: 10, algo: engine.AlgoHDRRM, opts: hdOpts(sc, 1, s.spec),
			fresh: freshBatches(pool, i)}
		q, err := withSpace(q, s.spec)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	for _, s := range []struct {
		name string
		spec string
	}{{"2d-full", ""}, {"2d-weak1", "weak:1"}} {
		q := query{name: s.name, ds: twoD, r: 5, algo: engine.AlgoTwoDRRM, opts: engine.Options{Seed: 1, SpaceKey: s.spec}}
		q, err := withSpace(q, s.spec)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// answer is what a solve returned, in the form checks compare.
type answer struct {
	ids []int
	k   int
}

func (a answer) equal(b answer) bool { return a.k == b.k && slices.Equal(a.ids, b.ids) }

func answerOf(sol *engine.Solution) answer {
	return answer{ids: append([]int(nil), sol.IDs...), k: sol.RankRegret}
}

// opTimes collects the timed samples of one query across repeats.
type opTimes struct {
	cold, eval, fresh []float64
	// layer times of the traced run, one sample per repeat
	layers map[string][]float64
}

// queryState is what a query's repeats must agree on.
type queryState struct {
	cold        *answer
	fresh       []*answer // one per fresh batch
	rr          *int
	ok          bool // every repeat agreed and every check passed
	times       opTimes
	counts      map[string]float64 // work counters of the traced replay
	engineStats engine.VecSetStats
}

func (st *queryState) agree(dst **answer, a answer) {
	if *dst == nil {
		*dst = &a
		return
	}
	if !(*dst).equal(a) {
		st.ok = false
	}
}

type libraryRun struct {
	queries []query
	states  []*queryState
	rec     *recorder

	attempted int
	passAlloc []float64 // MB allocated per pass
	passRSS   []float64 // peak RSS within each pass, MB
	passRate  []float64 // operations per timed second, per pass
	autoGC    []float64 // runtime-started GC cycles per pass
	heapLive  []float64
}

// op times one operation with a collection beforehand, outside the timer,
// so garbage left by the previous operation is never charged to this one.
func op(f func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// runLibrary runs a library workload: set-up, the timed passes over the
// query list, then the checks that need more solves than the timed loop
// should pay for.
func runLibrary(cfg runConfig, build func(scale, int64) ([]query, error)) (*outcome, error) {
	sc, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	// Set-up is only generation here, a few milliseconds, so one burst of
	// CPU steal can double it. It is repeated before the first pass and
	// between passes, and the median taken over the whole run.
	var setups []float64
	var qs []query
	setup := func() error {
		for i := 0; i < setupReps; i++ {
			var err error
			dt, _ := op(func() error {
				qs, err = build(sc, cfg.seed)
				return err
			})
			if err != nil {
				return err
			}
			setups = append(setups, dt)
		}
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}
	lr := &libraryRun{queries: qs}
	if cfg.trace {
		lr.rec = newRecorder()
	}
	for range qs {
		lr.states = append(lr.states, &queryState{ok: true, times: opTimes{layers: map[string][]float64{}}})
	}
	ctx := context.Background()

	start := time.Now()
	var passDur []float64
	for pass := 0; ; pass++ {
		elapsed := time.Since(start).Seconds()
		if pass >= minPasses && elapsed+median(passDur) > cfg.seconds {
			break
		}
		if pass > 0 {
			// the inputs generated here are identical and go unused
			if err := setup(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := lr.pass(ctx); err != nil {
			return nil, err
		}
		passDur = append(passDur, time.Since(t0).Seconds())
	}

	lr.verify(ctx)
	return lr.outcome(median(setups))
}

// setupReps is how many times a library run generates its inputs before
// the first pass and again between passes.
const setupReps = 3

// freshBatchesPerQuery is how many fresh operations each HDRRM query runs
// a pass, each appending its own batch to the version the previous one made.
const freshBatchesPerQuery = 3

// minPasses is the fewest repeats of every query a run takes, so each
// per-query median has a middle value even on a slow machine.
const minPasses = 3

// pass runs every query of the list once, in list order, so a slow spell
// of the machine is spread over all queries instead of landing on one.
func (lr *libraryRun) pass(ctx context.Context) error {
	resetPeakRSS(os.Getpid())
	alloc0, gc0 := memCounters()
	var busy float64
	ops := 0
	for i := range lr.queries {
		q, st := &lr.queries[i], lr.states[i]
		n, b, err := lr.runQuery(ctx, q, st)
		if err != nil {
			return err
		}
		ops += n
		busy += b
	}
	alloc1, gc1 := memCounters()
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	lr.passRSS = append(lr.passRSS, rss)
	lr.passAlloc = append(lr.passAlloc, float64(alloc1-alloc0)/1e6)
	lr.autoGC = append(lr.autoGC, float64(gc1-gc0))
	lr.passRate = append(lr.passRate, float64(ops)/busy)
	return nil
}

// runQuery runs one repeat of a query: the cold solve, the evaluation of
// its answer and, for HDRRM, the fresh solve after an append. It returns
// the number of operations and their summed time.
func (lr *libraryRun) runQuery(ctx context.Context, q *query, st *queryState) (int, float64, error) {
	var eng *engine.Engine
	var sol *engine.Solution
	lr.attempted++
	dt, err := op(func() error {
		eng = engine.New(0)
		var err error
		sol, err = eng.Solve(ctx, q.ds, q.r, q.algo, q.opts)
		return err
	})
	if err != nil {
		// A workload is chosen so no operation fails; one that does is a
		// defect of the program, so the run stops and prints no result.
		return 0, 0, fmt.Errorf("%s: cold solve: %w", q.name, err)
	}
	lr.heapLive = append(lr.heapLive, heapLiveMB())
	st.times.cold = append(st.times.cold, dt)
	st.agree(&st.cold, answerOf(sol))
	busy := dt
	ops := 1

	if lr.rec != nil {
		if err := lr.traceQuery(ctx, q, st, answerOf(sol)); err != nil {
			return 0, 0, err
		}
	}

	var rr int
	lr.attempted++
	dt, err = op(func() error {
		defer lr.rec.begin("eval.RankRegret")()
		var err error
		rr, err = eval.RankRegret(q.ds, sol.IDs, q.evalSpace(), evalSamples, evalSeed)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("%s: evaluate: %w", q.name, err)
	}
	st.times.eval = append(st.times.eval, dt)
	if st.rr == nil {
		st.rr = &rr
	} else if *st.rr != rr {
		st.ok = false
	}
	busy += dt
	ops++

	cur := q.ds
	for b, rows := range q.fresh {
		lr.attempted++
		var fsol *engine.Solution
		fctx := ctx
		var tr *obs.Trace
		if lr.rec != nil {
			tr = obs.NewTrace(q.name)
			fctx = obs.WithTrace(ctx, tr)
		}
		dt, err = op(func() error {
			cur = appended(cur, rows)
			var err error
			fsol, err = eng.Solve(fctx, cur, q.r, q.algo, q.opts)
			return err
		})
		if err != nil {
			return 0, 0, fmt.Errorf("%s: fresh solve: %w", q.name, err)
		}
		if tr != nil {
			for _, s := range tr.Snapshot().Spans {
				name := "engine.stage_" + s.Name + "_s"
				st.times.layers[name] = append(st.times.layers[name], s.SelfMS/1000)
			}
			st.engineStats = eng.VecSetStats()
		}
		st.times.fresh = append(st.times.fresh, dt)
		if len(st.fresh) <= b {
			st.fresh = append(st.fresh, nil)
		}
		st.agree(&st.fresh[b], answerOf(fsol))
		busy += dt
		ops++
	}
	return ops, busy, nil
}

// verify runs the checks that cost extra solves, once per query after the
// timed loop: the untraced replay of HDRRM's search must return the cold
// answer, a 2DRRM answer's rank-regret must equal the exact 2D oracle, and
// the fresh answer, which the engine got by repairing the cold vector set,
// must equal a cold solve of the appended data.
func (lr *libraryRun) verify(ctx context.Context) {
	for i := range lr.queries {
		q, st := &lr.queries[i], lr.states[i]
		if st.cold == nil {
			st.ok = false
			continue
		}
		switch q.algo {
		case engine.AlgoHDRRM:
			if lr.rec == nil { // the traced run compared every repeat already
				rs, err := replayHDRRM(ctx, nil, q.ds, q.r, q.opts)
				if err != nil || !rs.answer.equal(*st.cold) {
					st.ok = false
				}
			}
		case engine.AlgoTwoDRRM:
			exact, err := eval.RankRegret2DExact(q.ds, st.cold.ids, q.space)
			if err != nil || exact != st.cold.k {
				st.ok = false
			}
		}
		cur := q.ds
		for b, rows := range q.fresh {
			cur = appended(cur, rows)
			sol, err := engine.New(0).Solve(ctx, cur, q.r, q.algo, q.opts)
			if err != nil || b >= len(st.fresh) || !answerOf(sol).equal(*st.fresh[b]) {
				st.ok = false
			}
		}
	}
}

// digest folds every answer of the query list into one string.
func (lr *libraryRun) digest() string {
	var d digest
	for i, q := range lr.queries {
		st := lr.states[i]
		if st.cold != nil {
			d.add("%s cold k=%d ids=%v", q.name, st.cold.k, st.cold.ids)
		}
		if st.rr != nil {
			d.add("%s eval rr=%d", q.name, *st.rr)
		}
		for b, a := range st.fresh {
			d.add("%s fresh%d k=%d ids=%v", q.name, b, a.k, a.ids)
		}
	}
	return d.sum()
}

func (lr *libraryRun) outcome(setup float64) (*outcome, error) {
	out := &outcome{attempted: lr.attempted, correct: true, digest: lr.digest()}
	// Each query is represented by its median over repeats, and the
	// percentiles are taken over the list of queries. Pooling the repeats
	// instead puts a percentile on the edge between two queries whenever
	// one slow repeat shifts the ranks, and it then jumps between them.
	var cold, evals, fresh []float64
	for _, st := range lr.states {
		if !st.ok {
			out.correct = false
			// every operation of a query whose answers disagree or fail a
			// check counts as failed
			out.failed += len(st.times.cold) + len(st.times.eval) + len(st.times.fresh)
		}
		cold = append(cold, median(st.times.cold))
		evals = append(evals, median(st.times.eval))
		if len(st.times.fresh) > 0 {
			fresh = append(fresh, median(st.times.fresh))
		}
	}
	coldSum := sum(cold)
	okFrac := float64(out.attempted-out.failed) / float64(out.attempted)
	out.e2e = map[string]float64{
		"setup_s":        setup,
		"ok_frac":        okFrac,
		"cold_s":         coldSum,
		"alloc_mb":       median(lr.passAlloc),
		"throughput_rps": median(lr.passRate),
		"solve_p50_s":    quantile(cold, 0.5),
		"solve_p90_s":    quantile(cold, 0.9),
		"evaluate_p50_s": quantile(evals, 0.5),
		"fresh_p50_s":    quantile(fresh, 0.5),
		"rss_mb":         median(lr.passRSS),
	}
	if lr.rec != nil {
		out.layers = lr.layerMetrics(coldSum)
		out.spans = lr.rec.spans
	}
	return out, nil
}
