package main

// metricDef is one metric the benchmark prints; BENCHMARK.json declares the
// same names and units, and the self-test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
	{"cold_s", "s"},
	{"alloc_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"solve_p50_s", "s"},
	{"solve_p90_s", "s"},
	{"evaluate_p50_s", "s"},
	{"fresh_p50_s", "s"},
	{"rss_mb", "MB"},
}

// perLayer are printed by every traced run, on every workload. A layer the
// workload does not exercise, or that the daemon does not expose, reads 0.
var perLayer = []metricDef{
	{"algohd.score_s", "s"},
	{"dataset.utilities_batch_s", "s"},
	{"topk.select_batch_s", "s"},
	{"algohd.tuples_scored", "count"},
	{"algohd.score_passes", "count"},
	{"algohd.depth", "count"},
	{"skyline.kskyband_s", "s"},
	{"skyline.skyband_frac", "fraction"},
	{"skyline.abandoned", "count"},
	{"algohd.asms_s", "s"},
	{"algohd.probes", "count"},
	{"algohd.k", "count"},
	{"algohd.vecset_build_s", "s"},
	{"algohd.vectors", "count"},
	{"algo2d.twodrrm_s", "s"},
	{"eval.rank_regret_s", "s"},
	{"eval.rank_regret", "count"},
	{"engine.cache_hit_ratio", "fraction"},
	{"engine.cache_lookups", "count"},
	{"engine.vecset_builds", "count"},
	{"engine.vecset_reuses", "count"},
	{"engine.vecset_extensions", "count"},
	{"engine.vecset_repairs", "count"},
	{"engine.stage_cache_s", "s"},
	{"engine.stage_build_s", "s"},
	{"engine.stage_solve_s", "s"},
	{"rrmd.http_overhead_s", "s"},
	{"engine.queue_wait_s", "s"},
	{"engine.run_s", "s"},
	{"store.wal_append_s", "s"},
	{"store.wal_fsync_s", "s"},
	{"store.syncs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_live_mb", "MB"},
	{"trace.cold_s", "s"},
	{"trace.untraced_cold_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// layerMetrics reduces the traced run of a library workload. Times are the
// per-query median over repeats, summed over the query list; counts come
// from one repeat (they repeat exactly) and are summed over the list;
// skyline.skyband_frac is the mean over the HDRRM queries.
func (lr *libraryRun) layerMetrics(untracedCold float64) map[string]float64 {
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	hd := 0
	for i, st := range lr.states {
		for name, xs := range st.times.layers {
			if _, ok := m[name]; ok {
				m[name] += median(xs)
			}
		}
		m["eval.rank_regret_s"] += median(st.times.eval)
		if st.rr != nil {
			m["eval.rank_regret"] += float64(*st.rr)
		}
		for name, v := range st.counts {
			m[name] += v
		}
		if lr.queries[i].fresh != nil {
			hd++
			es := st.engineStats
			m["engine.vecset_builds"] += float64(es.Builds)
			m["engine.vecset_reuses"] += float64(es.Reuses)
			m["engine.vecset_extensions"] += float64(es.Extensions)
			m["engine.vecset_repairs"] += float64(es.Repairs)
		}
	}
	if hd > 0 {
		m["skyline.skyband_frac"] /= float64(hd)
	}
	// A library engine answers one cold solve and the fresh ones, each of
	// which misses the solution cache: the ratio stays 0 over this many
	// lookups.
	m["engine.cache_lookups"] = float64(len(lr.states) + hd*freshBatchesPerQuery)
	m["runtime.gc_cycles"] = median(lr.autoGC)
	m["runtime.heap_live_mb"] = median(lr.heapLive)
	m["trace.untraced_cold_s"] = untracedCold
	m["trace.overhead_s"] = m["trace.cold_s"] - untracedCold
	return m
}
