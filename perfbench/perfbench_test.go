package main

import (
	"context"
	"reflect"
	"testing"
)

// The benchmark's self-test, run from this directory with `go test ./...`:
// tiny sizes, one second per run.

func tinyConfig(t *testing.T, trace bool) config {
	return config{sz: tinySizes(), seed: 7, seconds: 1, trace: trace, traceDir: t.TempDir()}
}

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	return sp
}

// Every workload emits every metric BENCHMARK.json names, with its unit,
// in both modes, and answers every operation correctly.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	sp := loadTestSpec(t)
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			r, err := runWorkload(context.Background(), w.Name, tinyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			got, err := render(r, want, "")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			for _, m := range want {
				if got[m.Name].Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, got[m.Name].Unit, m.Unit)
				}
			}
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, r.failed, r.attempted, r.details)
			}
		}
	}
}

// A corrupted reference answer is caught as a failed operation.
func TestInjectedWrongAnswerFails(t *testing.T) {
	sz := tinySizes()
	firstQuery := func(ops []*op) string {
		for _, o := range ops {
			if !o.Load {
				return o.Text
			}
		}
		t.Fatal("schedule has no query")
		return ""
	}
	for name, wrong := range map[string]string{
		"serve_point":   firstQuery(pointSchedule(sz, 7, 1)),
		"serve_load":    firstQuery(loadSchedule(sz, 7, 1)),
		"closure_batch": "reach",
	} {
		cfg := tinyConfig(t, false)
		cfg.wrong = wrong
		r, err := runWorkload(context.Background(), name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.failed == 0 {
			t.Errorf("%s: the wrong expectation for %s was not caught", name, wrong)
		}
	}
}

// The same seed gives the same operation sequence and the same engine
// counters; another seed gives another sequence.
func TestSameSeedSameOperationsAndCounters(t *testing.T) {
	for _, name := range []string{"serve_point", "serve_load", "closure_batch"} {
		a, err := runWorkload(context.Background(), name, tinyConfig(t, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(context.Background(), name, tinyConfig(t, true))
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := a.seq, b.seq
		if name == "closure_batch" {
			// A closed loop runs as many calls as fit in the time; the
			// order of those calls is what the seed fixes.
			n := min(len(sa), len(sb))
			sa, sb = sa[:n], sb[:n]
		}
		if len(sa) == 0 || !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: operation sequences differ for one seed", name)
		}
		if len(a.counters) == 0 || !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: engine counters differ for one seed:\n%v\n%v", name, a.counters, b.counters)
		}
	}
	sz := tinySizes()
	if reflect.DeepEqual(pointSchedule(sz, 1, 1), pointSchedule(sz, 2, 1)) {
		t.Error("serve_point: seeds 1 and 2 give the same schedule")
	}
}
