package serve

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"coral"
	"coral/internal/workload"
)

// Differential serving test: for every fixpoint strategy and hash-join /
// bytecode arm, concurrent clients hammering a shared server must get
// exactly the answers a fresh single-threaded coral.System computes for
// the same program — concurrency, snapshot sessions, hash joins and
// bytecode must not change one tuple.

// diffQueries mixes bound and free recursive queries with base joins.
func diffQueries() []string {
	return []string{
		"tc(0, X)",
		"tc(5, X)",
		"tc(X, Y)",
		"edge(X, Y), edge(Y, X)",
		"edge(X, Y), tc(Y, Z)",
	}
}

// referenceAnswers evaluates the queries on a fresh single-threaded
// system — the canonical answer set every serving configuration is held
// to.
func referenceAnswers(t *testing.T, program string, queries []string) map[string][][]string {
	t.Helper()
	sys := coral.New()
	if _, err := sys.Consult(program); err != nil {
		t.Fatalf("reference consult: %v", err)
	}
	want := make(map[string][][]string, len(queries))
	for _, q := range queries {
		ans, err := sys.Query(q)
		if err != nil {
			t.Fatalf("reference %q: %v", q, err)
		}
		rows := make([][]string, len(ans.Tuples))
		for i, tu := range ans.Tuples {
			row := make([]string, len(tu))
			for j, arg := range tu {
				row[j] = arg.String()
			}
			rows[i] = row
		}
		want[q] = rows
	}
	return want
}

func TestDifferentialServing(t *testing.T) {
	program := workload.RandomGraph(16, 44, 17) + workload.TCModule("")
	queries := diffQueries()
	want := referenceAnswers(t, program, queries)

	strategies := []struct{ name, ann string }{
		{"bsn", ""},
		{"psn", "@psn.\n"},
		{"naive", "@naive.\n"},
	}
	for _, strat := range strategies {
		stratProgram := workload.RandomGraph(16, 44, 17) + workload.TCModule(strat.ann)
		stratWant := want
		if strat.ann != "" {
			// Each strategy gets its own reference run too, proving the
			// annotation itself does not change answers before we serve.
			stratWant = referenceAnswers(t, stratProgram, queries)
			for q := range want {
				if !sameTuples(stratWant[q], want[q]) {
					t.Fatalf("%s: strategy changed reference answers for %q", strat.name, q)
				}
			}
		}
		for _, hashJoins := range []bool{false, true} {
			for _, bytecode := range []bool{false, true} {
				// par is the number of concurrent clients of each kind:
				// one snapshot and one one-shot client at par=1, four of
				// each at par=4.
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/hash=%v/bc=%v/par=%d", strat.name, hashJoins, bytecode, par)
					t.Run(name, func(t *testing.T) {
						runServingDiff(t, stratProgram, queries, stratWant, hashJoins, bytecode, par)
					})
				}
			}
		}
	}
}

// setEngineHook sets one of engine.System's unexported no* test hooks
// (noHashJoins, noBytecode) on a system's engine. Production code has no
// way to select the off arms, so the differential reaches them the way
// the engine's own suites do — by writing the hook field — and fails
// loudly if the field is renamed or retyped.
func setEngineHook(t *testing.T, sys *coral.System, field string, on bool) {
	t.Helper()
	f := reflect.ValueOf(sys.Engine()).Elem().FieldByName(field)
	if !f.IsValid() || f.Kind() != reflect.Bool {
		t.Fatalf("engine.System has no bool field %s", field)
	}
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetBool(on)
}

// runServingDiff serves one configured system to 2*perKind concurrent
// clients (half in snapshot sessions, half one-shot) and checks every
// response against the reference answers.
func runServingDiff(t *testing.T, program string, queries []string, want map[string][][]string, hashJoins, bytecode bool, perKind int) {
	sys := coral.New()
	setEngineHook(t, sys, "noHashJoins", !hashJoins)
	setEngineHook(t, sys, "noBytecode", !bytecode)
	if _, err := sys.Consult(program); err != nil {
		t.Fatalf("consult: %v", err)
	}
	ts := httptest.NewServer(New(sys, Options{}).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 2*perKind; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			session := ""
			if c%2 == 0 {
				var sr SessionResponse
				if code := post(t, ts.URL+"/session", SessionRequest{Snapshot: true}, &sr); code != 200 {
					errs <- fmt.Errorf("client %d: session open HTTP %d", c, code)
					return
				}
				session = sr.Session
			}
			for i := 0; i < len(queries); i++ {
				q := queries[(c+i)%len(queries)]
				resp := query(t, ts.URL, q, session)
				if !sameTuples(resp.Tuples, want[q]) {
					errs <- fmt.Errorf("client %d query %q: got %d tuples, want %d (answers diverged)",
						c, q, len(resp.Tuples), len(want[q]))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
