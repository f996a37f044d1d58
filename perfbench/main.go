// Command perfbench is the CORAL benchmark: three workloads over the
// served and the embedded system, every answer checked against a
// reference, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory records why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload serve_point --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics BENCHMARK.json lists for the mode (end_to_end
// with --trace 0, per_layer with --trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// render selects the metrics the mode reports, in spec order, and fails on
// a missing or non-finite value.
func render(r *result, want []metricSpec, prefix string) (map[string]valueUnit, error) {
	have := r.e2e
	if r.traced {
		have = r.layer
	}
	out := make(map[string]valueUnit, len(want))
	for _, m := range want {
		v, ok := have[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[prefix+m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json, or all")
	seed := flag.Int64("seed", 1, "seed for keys, schedules and load contents")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	flag.Parse()
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(sp, *workload) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	want := sp.EndToEnd
	if *traceFlag == 1 {
		want = sp.PerLayer
	}
	cfg := config{sz: fullSizes(), seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		traceDir: filepath.Join(".bench_build", "perfbench-trace"), ladder: *workload == "all"}

	ctx := context.Background()
	final := output{Correct: true, Metrics: make(map[string]valueUnit)}
	for _, name := range names {
		r, err := runWorkload(ctx, name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		ms, err := render(r, want, prefix)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, d := range r.details {
			fmt.Printf("%s: %s\n", name, d)
		}
		for _, m := range want {
			v := ms[prefix+m.Name]
			fmt.Printf("%s: %s = %.6g %s\n", name, m.Name, v.Value, v.Unit)
			final.Metrics[prefix+m.Name] = v
		}
		final.Attempted += r.attempted
		final.Failed += r.failed
	}
	final.Correct = final.Failed == 0
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func knownWorkload(sp *spec, name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
