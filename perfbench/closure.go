package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"coral"
)

// setupClosure consults every closure class into its own System and runs
// each class's first (cold) query.
func setupClosure(sz sizes) ([]*coral.System, time.Duration, error) {
	t0 := time.Now()
	systems := make([]*coral.System, len(sz.closure))
	for i, c := range sz.closure {
		sys := coral.New()
		if _, err := sys.Consult(c.program); err != nil {
			return nil, 0, fmt.Errorf("%s consult: %w", c.name, err)
		}
		if _, err := sys.NewSession().Query(context.Background(), c.query); err != nil {
			return nil, 0, fmt.Errorf("%s cold query: %w", c.name, err)
		}
		systems[i] = sys
	}
	return systems, time.Since(t0), nil
}

// closureOrder is the seeded class order the closed loop cycles through.
func closureOrder(sz sizes, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(sz.closure))
}

// closureRefs answers each class once on the single-caller path.
func closureRefs(sz sizes, wrong string) ([]digest, error) {
	refs := make([]digest, len(sz.closure))
	for i, c := range sz.closure {
		ref, err := newReference(c.program, false)
		if err != nil {
			return nil, err
		}
		if c.name == wrong {
			ref.wrong = c.query
		}
		a, err := ref.answer(c.query)
		if err != nil {
			return nil, err
		}
		refs[i] = a.digest()
	}
	return refs, nil
}

// runClosurePhase is the embedded closed loop: one caller runs
// Session.Query round-robin over the classes, in passes of one call per
// class, until seconds of wall time have passed. Latency and CPU are taken
// around each call; answers are checked between calls, outside both.
// Throughput and CPU per call are medians over passes.
func runClosurePhase(ctx context.Context, sz sizes, systems []*coral.System, order []int, refs []digest, seconds float64, tr *tracer, seq *[]string) *phase {
	p := &phase{}
	var passBusy, passCPU []float64
	measure(p, func() {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		for i := 0; time.Now().Before(deadline); {
			var busy, cpu time.Duration
			for _, ci := range order {
				c := sz.closure[ci]
				if seq != nil {
					*seq = append(*seq, c.query)
				}
				sess := systems[ci].NewSession()
				i++
				start := tr.begin()
				c0, t0 := cpuTime(), time.Now()
				ans, err := sess.Query(ctx, c.query)
				dt := time.Since(t0)
				cpu += cpuTime() - c0
				tr.finish("coral.Session.Query", int64(i), start)
				busy += dt
				p.attempts++
				if err != nil {
					p.fail("%s: %v", c.query, err)
					continue
				}
				p.done++
				p.lat = append(p.lat, ms(dt))
				if got := digestRows(renderTuples(ans.Tuples)); got != refs[ci] {
					p.fail("%s: %d answers, want %d", c.query, got.N, refs[ci].N)
				}
			}
			passBusy = append(passBusy, busy.Seconds())
			passCPU = append(passCPU, ms(cpu))
		}
	})
	n := float64(len(order))
	p.qps = n / median(passBusy)
	p.cpuPerOpMS = median(passCPU) / n
	return p
}
