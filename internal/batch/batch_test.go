package batch_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/weight"
)

// essence projects a result onto its semantically meaningful fields,
// dropping timings and system-size statistics.
type essence struct {
	Verdict engine.Verdict
	Trace   network.Trace
	Failed  network.FailedSet
	Weight  weight.Vec
}

func essenceOf(r engine.Result) essence {
	return essence{Verdict: r.Verdict, Trace: r.Trace, Failed: r.Failed, Weight: r.Weight}
}

func testWorkload(t *testing.T) (*gen.Synth, []string) {
	t.Helper()
	s := gen.Zoo(gen.ZooOpts{Routers: 30, Seed: 5, Protection: true})
	var texts []string
	for _, q := range s.Queries(12, 17) {
		texts = append(texts, q.Text)
	}
	return s, texts
}

// TestBatchMatchesSerial checks the batch contract: for every worker
// count, each query's verdict, witness trace, failed set and weight are
// identical to a fresh serial engine.Verify run, and results come back in
// input order.
func TestBatchMatchesSerial(t *testing.T) {
	s, texts := testWorkload(t)
	serial := make([]essence, len(texts))
	for i, text := range texts {
		res, err := engine.VerifyText(s.Net, text, engine.Options{})
		if err != nil {
			t.Fatalf("serial %q: %v", text, err)
		}
		serial[i] = essenceOf(res)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		runner := batch.NewRunner(s.Net)
		// Two sweeps: the second runs entirely from the warm cache and
		// must still reproduce the serial results.
		for sweep := 0; sweep < 2; sweep++ {
			results := runner.Verify(context.Background(), texts, batch.Options{Workers: workers})
			if len(results) != len(texts) {
				t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(texts))
			}
			for i, r := range results {
				if r.Index != i || r.Query != texts[i] {
					t.Fatalf("workers=%d sweep=%d: result %d out of order (index %d, %q)",
						workers, sweep, i, r.Index, r.Query)
				}
				if r.Err != nil {
					t.Fatalf("workers=%d sweep=%d %q: %v", workers, sweep, r.Query, r.Err)
				}
				if got := essenceOf(r.Res); !reflect.DeepEqual(got, serial[i]) {
					t.Errorf("workers=%d sweep=%d %q: batch result differs from serial\nbatch:  %+v\nserial: %+v",
						workers, sweep, r.Query, got, serial[i])
				}
			}
		}
		st := runner.CacheStats()
		if st.Misses >= st.Gets {
			t.Errorf("workers=%d: cache never hit (gets=%d misses=%d)", workers, st.Gets, st.Misses)
		}
	}
}

// TestBatchWeighted runs a weighted batch against serial weighted runs:
// cached weighted systems must reproduce minimal witness weights.
func TestBatchWeighted(t *testing.T) {
	s, texts := testWorkload(t)
	texts = texts[:6]
	spec := weight.Spec{
		{{Coeff: 1, Q: weight.Hops}},
		{{Coeff: 1, Q: weight.Failures}, {Coeff: 3, Q: weight.Tunnels}},
	}
	serial := make([]essence, len(texts))
	for i, text := range texts {
		res, err := engine.VerifyText(s.Net, text, engine.Options{Spec: spec})
		if err != nil {
			t.Fatalf("serial %q: %v", text, err)
		}
		serial[i] = essenceOf(res)
	}
	runner := batch.NewRunner(s.Net)
	for sweep := 0; sweep < 2; sweep++ {
		results := runner.Verify(context.Background(), texts,
			batch.Options{Workers: 4, Engine: engine.Options{Spec: spec}})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("sweep=%d %q: %v", sweep, r.Query, r.Err)
			}
			if got := essenceOf(r.Res); !reflect.DeepEqual(got, serial[i]) {
				t.Errorf("sweep=%d %q: weighted batch differs from serial\nbatch:  %+v\nserial: %+v",
					sweep, r.Query, got, serial[i])
			}
		}
	}
}

// TestBatchParseErrorIsolated checks that a malformed query fails alone
// without poisoning the rest of the batch.
func TestBatchParseErrorIsolated(t *testing.T) {
	s, texts := testWorkload(t)
	texts = append([]string{}, texts[:3]...)
	texts = append(texts, "<ip> [.#no-such-router] .* <ip> 0")
	results := batch.Verify(context.Background(), s.Net, texts, batch.Options{Workers: 2})
	for i, r := range results {
		if i == len(texts)-1 {
			if r.Err == nil {
				t.Errorf("malformed query reported no error")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("%q: %v", r.Query, r.Err)
		}
	}
}

// TestBatchCancellation checks that a cancelled batch context surfaces as
// context.Canceled on every unfinished query.
func TestBatchCancellation(t *testing.T) {
	s, texts := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := batch.Verify(ctx, s.Net, texts, batch.Options{Workers: 4})
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%q: err = %v, want context.Canceled", r.Query, r.Err)
		}
	}
}

// TestBatchPerQueryTimeout checks that an unmeetable per-query deadline
// yields context.DeadlineExceeded per query while leaving the batch alive.
func TestBatchPerQueryTimeout(t *testing.T) {
	s, texts := testWorkload(t)
	results := batch.Verify(context.Background(), s.Net, texts,
		batch.Options{Workers: 4, Timeout: time.Nanosecond})
	for _, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("%q: err = %v, want context.DeadlineExceeded", r.Query, r.Err)
		}
	}
}

// TestBatchOverlapping fires several Verify calls at one shared runner at
// once — the httpapi serving pattern. All calls must see identical
// results; run under -race this also stresses the cache's sharing
// discipline.
func TestBatchOverlapping(t *testing.T) {
	s, texts := testWorkload(t)
	runner := batch.NewRunner(s.Net)
	const calls = 4
	out := make([][]batch.Result, calls)
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = runner.Verify(context.Background(), texts, batch.Options{Workers: 3})
		}()
	}
	wg.Wait()
	for c := 1; c < calls; c++ {
		for i := range texts {
			if out[c][i].Err != nil || out[0][i].Err != nil {
				t.Fatalf("call %d query %d: err %v / %v", c, i, out[c][i].Err, out[0][i].Err)
			}
			a, b := essenceOf(out[c][i].Res), essenceOf(out[0][i].Res)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("call %d query %d: results differ across overlapping batches", c, i)
			}
		}
	}
}

// TestBatchBudgetErrorKeepsStats checks that a budget-exhausted query
// still surfaces its partial engine stats on the Result: callers
// diagnosing the timeout need the build time and the rules the
// saturation that blew the budget had generated. The budget lets each
// run generate some rules first: the first eight pops of both queries
// reach no head with rules, and neither query finishes within 64 pops.
func TestBatchBudgetErrorKeepsStats(t *testing.T) {
	s, texts := testWorkload(t)
	results := batch.Verify(context.Background(), s.Net, texts[:2], batch.Options{
		Workers: 2,
		Engine:  engine.Options{Budget: 64},
	})
	for _, r := range results {
		if !errors.Is(r.Err, engine.ErrBudget) {
			t.Fatalf("%q: err = %v, want ErrBudget", r.Query, r.Err)
		}
		if r.Stats.BuildTime <= 0 || r.Stats.OverRulesGenerated == 0 {
			t.Errorf("%q: partial stats missing on budget failure: %+v", r.Query, r.Stats)
		}
	}
}

// TestBatchResultStatsMirrorsRes pins Result.Stats == Result.Res.Stats on
// the success path, so callers can read stats uniformly on both paths.
func TestBatchResultStatsMirrorsRes(t *testing.T) {
	s, texts := testWorkload(t)
	results := batch.Verify(context.Background(), s.Net, texts[:3], batch.Options{Workers: 2})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%q: %v", r.Query, r.Err)
		}
		if !reflect.DeepEqual(r.Stats, r.Res.Stats) {
			t.Errorf("%q: Stats %+v != Res.Stats %+v", r.Query, r.Stats, r.Res.Stats)
		}
	}
}
