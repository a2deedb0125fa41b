package translate_test

import (
	"reflect"
	"sync"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// TestBuildDeterministic builds the same system repeatedly and demands
// byte-identical rule sequences: session-cached (built-once) and
// built-per-run verifications must make identical tie-breaks among
// equally minimal witnesses.
func TestBuildDeterministic(t *testing.T) {
	s := gen.Zoo(gen.ZooOpts{Routers: 30, Seed: 7, Protection: true})
	for _, g := range s.Queries(6, 11) {
		q, err := query.Parse(g.Text, s.Net)
		if err != nil {
			t.Fatalf("%s: %v", g.Text, err)
		}
		for _, mode := range []translate.Mode{translate.Over, translate.Under} {
			ref := translate.Build(s.Net, q, translate.Options{Mode: mode})
			for i := 0; i < 3; i++ {
				got := translate.Build(s.Net, q, translate.Options{Mode: mode})
				if !reflect.DeepEqual(got.PDS.Rules, ref.PDS.Rules) {
					t.Fatalf("%s mode=%d build %d: rule sequence differs", g.Text, mode, i)
				}
			}
		}
	}
}

// TestSharedSystemConcurrentSaturation saturates one eager translated
// system from several goroutines at once, each with its own initial
// automaton. This is how a scenario session's SessionCache shares a system
// among the concurrent runs of a batch; it is a race regression test for
// the formerly lazy rule indexes of pds.PDS (run it under -race).
func TestSharedSystemConcurrentSaturation(t *testing.T) {
	net := gen.RunningExample().Network
	q, err := query.Parse("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", net)
	if err != nil {
		t.Fatal(err)
	}
	sys := translate.Build(net, q, translate.Options{Mode: translate.Over})

	const workers = 8
	var wg sync.WaitGroup
	verdicts := make([]bool, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pds.PoststarOpts(sys.PDS, sys.InitAuto(), pds.SatOptions{Dim: sys.Dim})
			if err != nil {
				t.Error(err)
				return
			}
			_, found := res.FindAccepting(sys.FinalStates, sys.FinalSpec)
			verdicts[w] = found
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if verdicts[w] != verdicts[0] {
			t.Fatalf("worker %d disagrees: %v vs %v", w, verdicts[w], verdicts[0])
		}
	}
}
