// Command perfbench is the repository's benchmark: it generates a workload
// from a seed, drives the solver library or a real rrmd daemon through
// their public entry points, checks every answer, and prints the
// benchmark's metrics as one JSON object on the last line of its output.
//
//	bash perfbench/run.sh --workload weather --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	rrmd     string // daemon binary, for the serve workload
	workDir  string // where temporary files and span dumps go
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	correct           bool
	e2e, layers       map[string]float64
	digest            string
	spans             any // dumped to a file when the run ends
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload and writes the environment line and
// the result line to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg runConfig
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: weather, anticorr or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed phase runs")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.scale, "scale", "full", "input sizes: full, or tiny for the self-test")
	fs.StringVar(&cfg.rrmd, "rrmd", ".bench_build/rrmd", "rrmd binary for the serve workload")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for the daemon's data and the span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}

	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
	}
	steal0 := stealTicks()
	t0 := time.Now()
	var out *outcome
	var err error
	switch cfg.workload {
	case "weather":
		out, err = runLibrary(cfg, weatherQueries)
	case "anticorr":
		out, err = runLibrary(cfg, anticorrQueries)
	case "serve":
		out, err = runServe(cfg)
	default:
		return fmt.Errorf("unknown --workload %q (want weather, anticorr or serve)", cfg.workload)
	}
	if err != nil {
		return err
	}
	env["steal_ticks"] = stealTicks() - steal0
	env["wall_s"] = time.Since(t0).Seconds()
	env["digest"] = out.digest

	if want, ok := knownDigest(cfg); ok && want != out.digest {
		// The answers for the default seed are pinned: any change to them
		// is a change of solver output, which the benchmark treats as a
		// failed check.
		out.correct = false
		out.attempted++
		out.failed++
		out.e2e["ok_frac"] = float64(out.attempted-out.failed) / float64(out.attempted)
		env["digest_want"] = want
	}
	if out.spans != nil {
		path := filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := writeJSON(path, out.spans); err != nil {
			return err
		}
		env["spans_file"] = path
	}

	defs, values := endToEnd, out.e2e
	if cfg.trace {
		defs, values = perLayer, out.layers
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", envLine, resLine)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// knownDigest returns the pinned output digest of the default seed at full
// scale, from digests.json next to this source.
func knownDigest(cfg runConfig) (string, bool) {
	if cfg.seed != 1 || cfg.scale != "full" {
		return "", false
	}
	b, err := os.ReadFile(filepath.Join("perfbench", "digests.json"))
	if err != nil {
		return "", false
	}
	var m map[string]string
	if json.Unmarshal(b, &m) != nil {
		return "", false
	}
	d, ok := m[cfg.workload]
	return d, ok
}
