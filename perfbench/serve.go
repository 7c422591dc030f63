package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/rankregret/rankregret/internal/cliutil"
	"github.com/rankregret/rankregret/internal/dataset"
	"github.com/rankregret/rankregret/internal/engine"
	"github.com/rankregret/rankregret/internal/eval"
	"github.com/rankregret/rankregret/internal/funcspace"
	"github.com/rankregret/rankregret/internal/obs"
)

// The serve workload's fixed request list. Every solve pins a dataset
// version, so every answer can be checked against an in-process solve.
const (
	serveR       = 10 // budget of the warm-up and fresh solves
	serveRRRK    = 30 // threshold of the dual solve, inside the warm depth
	serveClients = 2
	setupRuns    = 3
	coldRuns     = 5
	appendRows   = 5
	// Client 0 appends and solves the new version this many times a pass,
	// which makes fresh solves 3 of the pass's 19 solves (16%): the 90th
	// percentile of solve latency then lies inside the fresh solves instead
	// of on the edge between them and the cache hits, where it would jump
	// between the two.
	freshPerPass = 3
)

var sweepRs = []int{8, 9, 10, 11, 12, 13, 14}

// requestsPerPass counts both clients' requests in one pass over their
// lists: client 1 sends the sweep, the dual solve and the evaluation;
// client 0 sends the same plus the appends and fresh solves.
var requestsPerPass = float64(2*(len(sweepRs)+2) + 2*freshPerPass)

// daemon is one running rrmd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://addr
	pprof  string
	dir    string
	exited chan struct{}
	log    *os.File
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var httpClient = &http.Client{Timeout: 120 * time.Second}

// startDaemon starts rrmd on a fresh data directory and waits until it
// answers /healthz.
func startDaemon(bin, dir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	paddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "rrmd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", addr,
		"-workers", "2",
		"-solve-parallelism", "1",
		"-fsync", "always",
		"-data-dir", filepath.Join(dir, "data"),
		"-pprof-addr", paddr,
		"-log-format", "json")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pprof: "http://" + paddr, dir: dir, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is not needed: stop and health checks read exited
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("rrmd exited during start-up (log in %s)", dir)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("rrmd did not become healthy within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if the
// drain takes too long. It returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

// call sends a JSON request and decodes a 2xx JSON answer into out; any
// other status is an error.
func call(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and slices are marshalled here
	}
	return b
}

type datasetInfo struct {
	Fingerprint string `json:"fingerprint"`
	Version     uint64 `json:"version"`
}

type solveAnswer struct {
	IDs        []int `json:"ids"`
	RankRegret int   `json:"rank_regret"`
}

type solveReq struct {
	Dataset    string `json:"dataset"`
	Version    uint64 `json:"version"`
	R          int    `json:"r,omitempty"`
	K          int    `json:"k,omitempty"`
	MaxSamples int    `json:"max_samples"`
	Seed       int64  `json:"seed"`
}

func (d *daemon) solve(req solveReq) (answer, error) {
	var a solveAnswer
	err := call(http.MethodPost, d.base+"/v1/solve", mustJSON(req), &a)
	return answer{ids: a.IDs, k: a.RankRegret}, err
}

// serveInputs are the generated inputs of one serve run.
type serveInputs struct {
	csv  []byte
	pool *dataset.Dataset // rows the appends draw from
}

func serveData(sc scale, seed int64) (serveInputs, error) {
	ds := permuted(weatherValues(sc.weatherN), seed)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf, true); err != nil {
		return serveInputs{}, err
	}
	return serveInputs{csv: buf.Bytes(), pool: weatherPool(sc.poolN)}, nil
}

// appendBatch is the i-th append's rows: the pool read in order, wrapping.
// Like the library's fresh rows they do not depend on the seed.
func (in serveInputs) appendBatch(i int) [][]float64 {
	rows := make([][]float64, appendRows)
	for j := range rows {
		rows[j] = in.pool.Row((i*appendRows + j) % in.pool.N())
	}
	return rows
}

// serveState is everything one serve run observes.
type serveState struct {
	cfg     runConfig
	sc      scale
	in      serveInputs
	d       *daemon
	vW, vA  uint64 // versions of the two uploads
	fpW     string
	evalIDs []int

	mu       sync.Mutex
	solveLat []float64
	evalLat  []float64
	freshLat []float64
	// answers by request, every one of which is checked after the run
	sweep     map[int][]answer
	rrr       []answer
	evals     []int
	freshAns  []answer // in append order; client 0 is the only writer
	colds     []answer
	attempted int
	failed    int // requests that got no 2xx answer
	first     []string
}

func (s *serveState) req(r, k int, name string, v uint64) solveReq {
	return solveReq{Dataset: name, Version: v, R: r, K: k, MaxSamples: s.sc.maxSamples, Seed: 1}
}

// setupOnce generates the data, starts a daemon, uploads the CSV twice
// ("w" is only read, "wa" takes the appends, so the versions "w" pins
// never age out of the retention window) and warms both with a solve, one
// after the other.
func (s *serveState) setupOnce(i int) error {
	in, err := serveData(s.sc, s.cfg.seed)
	if err != nil {
		return err
	}
	s.in = in
	dir := filepath.Join(s.cfg.workDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := startDaemon(s.cfg.rrmd, dir)
	if err != nil {
		return err
	}
	s.d = d
	var infoW, infoA datasetInfo
	if err := call(http.MethodPost, d.base+"/v1/datasets?name=w&header=1&normalize=1", in.csv, &infoW); err != nil {
		return err
	}
	if err := call(http.MethodPost, d.base+"/v1/datasets?name=wa&header=1&normalize=1", in.csv, &infoA); err != nil {
		return err
	}
	s.vW, s.vA, s.fpW = infoW.Version, infoA.Version, infoW.Fingerprint
	a, err := d.solve(s.req(serveR, 0, "w", s.vW))
	if err != nil {
		return err
	}
	s.evalIDs = a.ids
	_, err = d.solve(s.req(serveR, 0, "wa", s.vA))
	return err
}

// coldSolve uploads the CSV under a new name and times the first solve on
// it, which no cache tier can answer: the name salts every cache key. The
// daemon is already warm, so the figure does not carry a new process's
// first page faults. The dataset is dropped afterwards.
func (s *serveState) coldSolve(i int) (float64, answer, error) {
	name := fmt.Sprintf("cold%d", i)
	var info datasetInfo
	if err := call(http.MethodPost, s.d.base+"/v1/datasets?name="+name+"&header=1&normalize=1", s.in.csv, &info); err != nil {
		return 0, answer{}, err
	}
	t0 := time.Now()
	a, err := s.d.solve(s.req(serveR, 0, name, info.Version))
	dt := time.Since(t0).Seconds()
	if err != nil {
		return 0, answer{}, err
	}
	if err := call(http.MethodDelete, s.d.base+"/v1/datasets/"+name, nil, nil); err != nil {
		return 0, answer{}, err
	}
	return dt, a, nil
}

// barrier holds the clients at the end of each phase of a pass until all
// have arrived, and tells them together whether to go on.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      int
	cont     bool
	deadline time.Time
}

func newBarrier(n int, deadline time.Time) *barrier {
	b := &barrier{n: n, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every client has arrived; the last one decides, for
// all, whether the deadline leaves room for another phase.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cont = time.Now().Before(b.deadline)
		b.cond.Broadcast()
		return b.cont
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return b.cont
}

// client runs one closed-loop client: each request is sent once the
// previous one has been answered. A pass has two phases with a barrier
// after each. In the first, client 0 appends and solves the new version,
// freshPerPass times, while client 1 sends the budget sweep and the dual
// solve, then client 0 sends those too; in the second, both evaluate. Without the barrier the
// two clients drift in and out of phase, and since an evaluation uses
// both cores, its latency then depends on whether the other client's
// evaluation overlaps it (0.2 s alone, 0.4 s together).
func (s *serveState) client(id int, b *barrier) {
	timed := func(lat *[]float64, f func() error) bool {
		t0 := time.Now()
		err := f()
		dt := time.Since(t0).Seconds()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.attempted++
		if err != nil {
			s.failed++
			return false
		}
		*lat = append(*lat, dt)
		return true
	}
	body := mustJSON(map[string]any{"dataset": "w", "version": s.vW, "ids": s.evalIDs, "samples": evalSamples, "seed": evalSeed})
	appended, writing := 0, id == 0
	for pass := 0; ; pass++ {
		log := id == 0 && pass == 0
		for j := 0; j < freshPerPass && writing; j++ {
			writing = s.fresh(timed, appended, log && j == 0)
			appended++
		}
		for _, r := range sweepRs {
			var a answer
			if timed(&s.solveLat, func() (err error) { a, err = s.d.solve(s.req(r, 0, "w", s.vW)); return }) {
				s.record(func() { s.sweep[r] = append(s.sweep[r], a) }, log, "sweep r=%d k=%d ids=%v", r, a.k, a.ids)
			}
		}
		var a answer
		if timed(&s.solveLat, func() (err error) { a, err = s.d.solve(s.req(0, serveRRRK, "w", s.vW)); return }) {
			s.record(func() { s.rrr = append(s.rrr, a) }, log, "rrr k=%d ids=%v", a.k, a.ids)
		}
		if !b.wait() {
			return
		}
		var ev struct {
			RankRegret int `json:"rank_regret"`
		}
		if timed(&s.evalLat, func() error { return call(http.MethodPost, s.d.base+"/v1/evaluate", body, &ev) }) {
			s.record(func() { s.evals = append(s.evals, ev.RankRegret) }, log, "eval rr=%d", ev.RankRegret)
		}
		if !b.wait() {
			return
		}
	}
}

// fresh is client 0's write: append the i-th batch of rows to "wa", then
// solve the version the append created, timed from sending the append to
// the answer. It reports whether further appends can be checked.
func (s *serveState) fresh(timed func(*[]float64, func() error) bool, i int, log bool) bool {
	t0 := time.Now()
	var info datasetInfo
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
	if err := call(http.MethodPost, s.d.base+"/v1/datasets/wa/rows", mustJSON(map[string]any{"rows": s.in.appendBatch(i)}), &info); err != nil {
		// Whether the daemon applied the rows is unknown, so later
		// versions could not be checked: stop writing.
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		return false
	}
	var fa answer
	ok := timed(&s.solveLat, func() (err error) { fa, err = s.d.solve(s.req(serveR, 0, "wa", info.Version)); return })
	if !ok {
		fa = answer{k: -1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		s.freshLat = append(s.freshLat, time.Since(t0).Seconds())
	}
	s.freshAns = append(s.freshAns, fa)
	if log {
		s.first = append(s.first, fmt.Sprintf("fresh k=%d ids=%v", fa.k, fa.ids))
	}
	return true
}

func (s *serveState) record(f func(), log bool, format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
	if log {
		s.first = append(s.first, fmt.Sprintf(format, args...))
	}
}

// scrape reads the daemon's Prometheus exposition.
func (d *daemon) scrape() (*obs.Exposition, error) {
	resp, err := httpClient.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return obs.ParseExposition(resp.Body)
}

var totalAllocRE = regexp.MustCompile(`# TotalAlloc = (\d+)`)

// totalAlloc reads the daemon's cumulative heap allocation from the
// runtime.MemStats block of its pprof heap profile.
func (d *daemon) totalAlloc() (float64, error) {
	resp, err := httpClient.Get(d.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("no TotalAlloc in the heap profile")
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

func runServe(cfg runConfig) (*outcome, error) {
	sc, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	s := &serveState{cfg: cfg, sc: sc, sweep: map[int][]answer{}}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			s.d.stop()
			if err := os.RemoveAll(s.d.dir); err != nil {
				return nil, err
			}
			s.d = nil
		}
		t0 := time.Now()
		err := s.setupOnce(i)
		if err != nil {
			if s.d != nil {
				s.d.stop()
			}
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		s.d.stop()
		_ = os.RemoveAll(s.d.dir) // best effort: the work directory is scratch space
	}()
	var colds []float64
	for i := 0; i < coldRuns; i++ {
		dt, a, err := s.coldSolve(i)
		if err != nil {
			return nil, fmt.Errorf("serve cold solve: %w", err)
		}
		colds = append(colds, dt)
		s.colds = append(s.colds, a)
	}
	out, err := s.measure()
	if err != nil {
		return nil, err
	}
	// The cold solves are operations too; measure counted only the loop's.
	out.attempted += coldRuns
	out.e2e["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
	out.e2e["setup_s"] = median(setups)
	out.e2e["cold_s"] = median(colds)
	return out, nil
}

// measure runs the timed phase, then the checks.
func (s *serveState) measure() (*outcome, error) {
	cfg := s.cfg
	before, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	alloc0, err := s.d.totalAlloc()
	if err != nil {
		return nil, err
	}
	resetPeakRSS(s.d.cmd.Process.Pid)
	start := time.Now()
	b := newBarrier(serveClients, start.Add(time.Duration(cfg.seconds*float64(time.Second))))
	var wg sync.WaitGroup
	for id := 0; id < serveClients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(id, b)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	after, err := s.d.scrape()
	if err != nil {
		return nil, err
	}
	alloc1, err := s.d.totalAlloc()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(s.d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	var traces any
	if cfg.trace {
		var t map[string]any
		if err := call(http.MethodGet, s.d.base+"/v1/traces?n=100000", nil, &t); err != nil {
			return nil, err
		}
		traces = t
	}

	completed := s.attempted - s.failed
	wrong, evalS, rr, err := s.check()
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: s.attempted, failed: s.failed + wrong, correct: wrong == 0 && s.failed == 0}
	var d digest
	slices.Sort(s.first)
	for _, l := range s.first {
		d.add("%s", l)
	}
	out.digest = d.sum()
	out.e2e = map[string]float64{
		"alloc_mb":       (alloc1 - alloc0) / 1e6 / (float64(completed) / requestsPerPass),
		"throughput_rps": float64(completed) / elapsed,
		"solve_p50_s":    quantile(s.solveLat, 0.5),
		"solve_p90_s":    quantile(s.solveLat, 0.9),
		"evaluate_p50_s": quantile(s.evalLat, 0.5),
		"fresh_p50_s":    quantile(s.freshLat, 0.5),
		"rss_mb":         rss,
	}
	if cfg.trace {
		out.layers = s.layerMetrics(before, after, evalS, rr)
		out.spans = traces
	}
	return out, nil
}

// check compares every answer with an in-process solve on the same rows,
// loaded through the same CSV reader with the same normalisation. It
// returns how many answers were wrong, and the in-process evaluation's
// time and value.
func (s *serveState) check() (wrong int, evalS float64, rr int, err error) {
	ctx := context.Background()
	opts := engine.Options{Seed: 1, MaxSamples: s.sc.maxSamples, Parallelism: solveParallelism}
	load := func() (*dataset.Dataset, error) {
		return cliutil.LoadCSV(bytes.NewReader(s.in.csv), true, nil, true)
	}
	ds, err := load()
	if err != nil {
		return 0, 0, 0, err
	}
	if fp := fmt.Sprintf("%016x", ds.Fingerprint()); fp != s.fpW {
		return 0, 0, 0, fmt.Errorf("uploaded fingerprint %s, local %s", s.fpW, fp)
	}
	eng := engine.New(0)
	for r, got := range s.sweep {
		sol, err := eng.Solve(ctx, ds, r, "", opts)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, a := range got {
			if !answerOf(sol).equal(a) {
				wrong++
			}
		}
	}
	sol, err := eng.Solve(ctx, ds, serveR, "", opts)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, a := range s.colds {
		if !answerOf(sol).equal(a) {
			wrong++
		}
	}
	sol, err = eng.SolveRRR(ctx, ds, serveRRRK, "", opts)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, a := range s.rrr {
		if !answerOf(sol).equal(a) {
			wrong++
		}
	}
	t0 := time.Now()
	rr, err = eval.RankRegret(ds, s.evalIDs, funcspace.NewFull(ds.Dim()), evalSamples, evalSeed)
	evalS = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, got := range s.evals {
		if got != rr {
			wrong++
		}
	}
	// Replay the appends in order on a second lineage, repairing the
	// engine's vector set version by version as the daemon does.
	cur, err := load()
	if err != nil {
		return 0, 0, 0, err
	}
	engA := engine.New(0)
	if _, err := engA.Solve(ctx, cur, serveR, "", opts); err != nil {
		return 0, 0, 0, err
	}
	for i, got := range s.freshAns {
		next := cur.Snapshot()
		for _, row := range s.in.appendBatch(i) {
			next.Append(row)
		}
		cur = next
		if got.k < 0 {
			continue // the solve failed and was counted then
		}
		sol, err := engA.Solve(ctx, cur, serveR, "", opts)
		if err != nil {
			return 0, 0, 0, err
		}
		if !answerOf(sol).equal(got) {
			wrong++
		}
	}
	return wrong, evalS, rr, nil
}

// layerMetrics reads the per-layer numbers of the serve workload from the
// daemon's own metric families, as differences over the timed phase.
func (s *serveState) layerMetrics(before, after *obs.Exposition, evalS float64, rr int) map[string]float64 {
	// delta sums every series of a sample name, whatever its labels (the
	// scheduler's histograms carry the dequeue policy, for instance).
	delta := func(name string) float64 {
		var d float64
		for key, v := range after.Samples {
			if key == name || strings.HasPrefix(key, name+"{") {
				d += v - before.Samples[key]
			}
		}
		return d
	}
	mean := func(family, labels string) float64 {
		n := delta(family + "_count" + labels)
		if n == 0 {
			return 0
		}
		return delta(family+"_sum"+labels) / n
	}
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.name] = 0
	}
	hits, misses := delta("rrmd_cache_hits_total"), delta("rrmd_cache_misses_total")
	m["engine.cache_lookups"] = hits + misses
	if hits+misses > 0 {
		m["engine.cache_hit_ratio"] = hits / (hits + misses)
	}
	for _, o := range []string{"builds", "reuses", "extensions", "repairs"} {
		m["engine.vecset_"+o] = delta("rrmd_vecset_" + o + "_total")
	}
	for _, st := range []string{"cache", "build", "solve"} {
		m["engine.stage_"+st+"_s"] = mean("rrmd_solve_stage_duration_seconds", `{stage="`+st+`"}`)
	}
	m["engine.queue_wait_s"] = mean("rrmd_queue_wait_seconds", "")
	m["engine.run_s"] = mean("rrmd_run_duration_seconds", "")
	m["store.wal_append_s"] = mean("rrmd_wal_append_seconds", "")
	m["store.wal_fsync_s"] = mean("rrmd_wal_fsync_seconds", "")
	m["store.syncs"] = delta("rrmd_store_syncs_total")
	m["runtime.gc_cycles"] = delta("rrmd_go_gc_cycles_total")
	live, _ := after.Value("rrmd_go_heap_live_bytes")
	m["runtime.heap_live_mb"] = live / 1e6
	// What a client waits beyond the daemon's own solve time: HTTP, JSON
	// and the accept path.
	if server := mean("rrmd_solve_duration_seconds", ""); server > 0 {
		m["rrmd.http_overhead_s"] = sum(s.solveLat)/float64(len(s.solveLat)) - server
	}
	m["eval.rank_regret_s"] = evalS
	m["eval.rank_regret"] = float64(rr)
	return m
}
