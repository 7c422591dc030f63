package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at the tiny scale and checks that each
// run prints every metric BENCHMARK.json declares, with its unit, that all
// output checks pass, and that one seed always gives the same digest.

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// buildRRMD builds the daemon from the repository's sources.
func buildRRMD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rrmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rrmd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build rrmd: %v\n%s", err, out)
	}
	return bin
}

type tinyRun struct {
	env    map[string]any
	result result
}

func runTiny(t *testing.T, rrmd, workload, seed, trace string) tinyRun {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--scale", "tiny", "--rrmd", rrmd, "--workdir", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want an env line and a result line, got %q", workload, out.String())
	}
	var r tinyRun
	var env struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &env); err != nil {
		t.Fatal(err)
	}
	r.env = env.Env
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEveryWorkloadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts rrmd and runs every workload")
	}
	decl := loadDeclared(t)
	rrmd := buildRRMD(t)
	for _, w := range decl.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for trace, metrics := range map[string][]struct{ Name, Unit string }{"0": decl.EndToEnd, "1": decl.PerLayer} {
				r := runTiny(t, rrmd, w.Name, "3", trace)
				if !r.result.Correct || r.result.Failed != 0 || r.result.Attempted < 1 {
					t.Errorf("trace=%s: correct=%v attempted=%d failed=%d", trace, r.result.Correct, r.result.Attempted, r.result.Failed)
				}
				if len(r.result.Metrics) != len(metrics) {
					t.Errorf("trace=%s: %d metrics printed, %d declared", trace, len(r.result.Metrics), len(metrics))
				}
				for _, m := range metrics {
					got, ok := r.result.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%s: metric %s = %+v, want unit %q", trace, m.Name, got, m.Unit)
					}
				}
				again := runTiny(t, rrmd, w.Name, "3", trace)
				if r.env["digest"] != again.env["digest"] {
					t.Errorf("trace=%s: seed 3 gave digests %v and %v", trace, r.env["digest"], again.env["digest"])
				}
			}
		})
	}
}

// The code's metric tables and BENCHMARK.json must name the same metrics.
func TestDeclaredMatchesCode(t *testing.T) {
	decl := loadDeclared(t)
	for _, c := range []struct {
		code []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, decl.EndToEnd}, {perLayer, decl.PerLayer}} {
		if len(c.code) != len(c.json) {
			t.Fatalf("code declares %d metrics, BENCHMARK.json %d", len(c.code), len(c.json))
		}
		for i, m := range c.code {
			if m.name != c.json[i].Name || m.unit != c.json[i].Unit {
				t.Errorf("metric %d: code %s [%s], BENCHMARK.json %s [%s]", i, m.name, m.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
}
