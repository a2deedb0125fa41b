package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/labels"
	"aalwines/internal/moped"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/routing"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// randomNetwork builds a small random MPLS network: a random connected
// multigraph with random routing entries (including priority-2 backup
// groups) whose operations respect header validity.
func randomNetwork(rng *rand.Rand) *network.Network {
	n := network.New("fuzz")
	numRouters := 3 + rng.Intn(3)
	routers := make([]topology.RouterID, numRouters)
	for i := range routers {
		routers[i] = n.Topo.AddRouter(fmt.Sprintf("r%d", i))
	}
	// Ring + random chords.
	var links []topology.LinkID
	addLink := func(a, b int) {
		l := n.Topo.MustAddLink(routers[a], routers[b],
			fmt.Sprintf("o%d", len(links)), fmt.Sprintf("i%d", len(links)), 1)
		links = append(links, l)
	}
	for i := 0; i < numRouters; i++ {
		addLink(i, (i+1)%numRouters)
	}
	for i := 0; i < numRouters; i++ {
		addLink(rng.Intn(numRouters), rng.Intn(numRouters))
	}

	// Labels.
	var mpls, smpls, ips []labels.ID
	for i := 0; i < 2; i++ {
		mpls = append(mpls, n.Labels.MustIntern(fmt.Sprintf("%d0", i+3), labels.MPLS))
	}
	for i := 0; i < 3; i++ {
		smpls = append(smpls, n.Labels.MustIntern(fmt.Sprintf("s%d0", i+1), labels.BottomMPLS))
	}
	for i := 0; i < 2; i++ {
		ips = append(ips, n.Labels.MustIntern(fmt.Sprintf("ip%d", i), labels.IP))
	}
	pick := func(s []labels.ID) labels.ID { return s[rng.Intn(len(s))] }

	// Random rules: for a key (incoming link, top label), outgoing links
	// must leave the incoming link's target router.
	numRules := 6 + rng.Intn(10)
	for i := 0; i < numRules; i++ {
		in := links[rng.Intn(len(links))]
		router := n.Topo.Target(in)
		outs := n.Topo.Routers[router].Out()
		if len(outs) == 0 {
			continue
		}
		out := outs[rng.Intn(len(outs))]
		// Top label kind decides valid ops.
		var top labels.ID
		var ops routing.Ops
		switch rng.Intn(4) {
		case 0: // IP top: push an smpls label (tunnel entry) or forward.
			top = pick(ips)
			if rng.Intn(2) == 0 {
				ops = routing.Ops{routing.Push(pick(smpls))}
			}
		case 1: // smpls top: swap, pop, or push an mpls label.
			top = pick(smpls)
			switch rng.Intn(3) {
			case 0:
				ops = routing.Ops{routing.Swap(pick(smpls))}
			case 1:
				ops = routing.Ops{routing.Pop()}
			default:
				ops = routing.Ops{routing.Push(pick(mpls))}
			}
		case 2: // mpls top: swap or pop.
			top = pick(mpls)
			if rng.Intn(2) == 0 {
				ops = routing.Ops{routing.Swap(pick(mpls))}
			} else {
				ops = routing.Ops{routing.Pop()}
			}
		default: // failover-style: swap + push.
			top = pick(smpls)
			ops = routing.Ops{routing.Swap(pick(smpls)), routing.Push(pick(mpls))}
		}
		prio := 1
		if rng.Intn(4) == 0 {
			prio = 2
		}
		n.Routing.MustAdd(in, top, prio, routing.Entry{Out: out, Ops: ops})
	}
	return n
}

// randomQuery builds a random query over the network's routers.
func randomQuery(rng *rand.Rand, n *network.Network) string {
	r := func() string {
		return n.Topo.Routers[rng.Intn(n.Topo.NumRouters())].Name
	}
	k := rng.Intn(3)
	heads := []string{"ip", "smpls ip", "smpls? ip", "mpls smpls ip", ". ip", "(mpls* smpls)? ip"}
	h1 := heads[rng.Intn(len(heads))]
	h2 := heads[rng.Intn(len(heads))]
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("<%s> [.#%s] .* [.#%s] <%s> %d", h1, r(), r(), h2, k)
	case 1:
		return fmt.Sprintf("<%s> [.#%s] [^%s#%s]* [.#%s] <%s> %d", h1, r(), r(), r(), r(), h2, k)
	case 2:
		return fmt.Sprintf("<%s> .* <%s> %d", h1, h2, k)
	default:
		return fmt.Sprintf("<%s> [.#%s] .{1,4} [.#%s] <%s> %d", h1, r(), r(), h2, k)
	}
}

// TestFuzzEngineAgainstBruteForce cross-checks the full pipeline against
// exhaustive enumeration on random networks: the engine may never claim
// Unsatisfied when a bounded witness exists, never claim Satisfied when no
// witness exists, and all its witnesses must validate.
func TestFuzzEngineAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	iters := 120
	if testing.Short() {
		iters = 25
	}
	inconclusives := 0
	for iter := 0; iter < iters; iter++ {
		n := randomNetwork(rng)
		qt := randomQuery(rng, n)
		q, err := query.Parse(qt, n)
		if err != nil {
			t.Fatalf("iter %d: %s: %v", iter, qt, err)
		}
		res, err := engine.Verify(n, q, engine.Options{})
		if err != nil {
			t.Fatalf("iter %d: %s: %v", iter, qt, err)
		}
		want := bruteForceSatisfiableFuzz(n, q)
		switch res.Verdict {
		case engine.Satisfied:
			// The brute force is bounded (trace length ≤ 6, header depth
			// ≤ 3); within those bounds it must agree.
			if !want && len(res.Trace) <= 6 && len(res.Trace[0].Header) <= 3 {
				t.Fatalf("iter %d: %s: engine satisfied with a bounded witness, brute force found nothing; witness: %s",
					iter, qt, res.Trace.Format(n))
			}
			checkWitness(t, n, qt, res)
		case engine.Unsatisfied:
			if want {
				t.Fatalf("iter %d: %s: engine unsatisfied, brute force found a witness", iter, qt)
			}
		case engine.Inconclusive:
			inconclusives++
			if want {
				t.Logf("iter %d: %s: inconclusive but a witness exists (approximation gap)", iter, qt)
			}
		}
		// The Moped backend must agree with the dual engine's verdict.
		if iter%5 == 0 {
			base, err := engine.Verify(n, q, engine.Options{Saturate: moped.Poststar})
			if err != nil {
				t.Fatalf("iter %d moped: %v", iter, err)
			}
			if base.Verdict != res.Verdict {
				t.Fatalf("iter %d: %s: dual=%v moped=%v", iter, qt, res.Verdict, base.Verdict)
			}
		}
	}
	t.Logf("%d/%d inconclusive", inconclusives, iters)
}

// TestFuzzWeightedMinimality checks on random instances that the weighted
// engine's reported minimum is genuinely minimal: no brute-force witness
// has a smaller weight vector.
func TestFuzzWeightedMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	spec := weight.Spec{
		{{Coeff: 1, Q: weight.Hops}},
		{{Coeff: 1, Q: weight.Failures}, {Coeff: 3, Q: weight.Tunnels}},
	}
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		n := randomNetwork(rng)
		qt := randomQuery(rng, n)
		q, err := query.Parse(qt, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Verify(n, q, engine.Options{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != engine.Satisfied {
			continue
		}
		best := bruteForceMinWeight(n, q, spec)
		if best == nil {
			t.Fatalf("iter %d: %s: engine satisfied but brute force found nothing", iter, qt)
		}
		// The engine's weight must not be worse than the brute-force
		// minimum over bounded traces. (It may be better only if the true
		// minimal witness is longer than the brute-force bound — then the
		// bounded "minimum" is not global; accept engine ≤ brute.)
		if best.Less(res.Weight) {
			t.Fatalf("iter %d: %s: engine weight %v, brute force found better %v",
				iter, qt, res.Weight, best)
		}
	}
}

// FuzzVerifyBatch cross-checks the batch engine against serial runs on
// random instances: for any random network, query set and worker count,
// every batch result must agree with a fresh engine.Verify call — same
// error-or-success, same verdict, same witness trace, same failed set.
func FuzzVerifyBatch(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4))
	f.Add(int64(42), int64(7), uint8(1))
	f.Add(int64(1234), int64(99), uint8(8))
	f.Add(int64(-5), int64(0), uint8(3))
	f.Fuzz(func(t *testing.T, netSeed, querySeed int64, workers uint8) {
		rng := rand.New(rand.NewSource(netSeed))
		n := randomNetwork(rng)
		qrng := rand.New(rand.NewSource(querySeed))
		texts := make([]string, 6)
		for i := range texts {
			texts[i] = randomQuery(qrng, n)
		}
		w := int(workers%8) + 1
		results := batch.Verify(context.Background(), n, texts, batch.Options{Workers: w})
		for i, r := range results {
			res, err := engine.VerifyText(n, texts[i], engine.Options{})
			if (r.Err != nil) != (err != nil) {
				t.Fatalf("workers=%d %q: batch err %v, serial err %v", w, texts[i], r.Err, err)
			}
			if err != nil {
				continue
			}
			if r.Res.Verdict != res.Verdict {
				t.Fatalf("workers=%d %q: batch verdict %v, serial %v", w, texts[i], r.Res.Verdict, res.Verdict)
			}
			if !reflect.DeepEqual(r.Res.Trace, res.Trace) || !reflect.DeepEqual(r.Res.Failed, res.Failed) {
				t.Fatalf("workers=%d %q: batch witness differs from serial\nbatch:  %s\nserial: %s",
					w, texts[i], r.Res.Trace.Format(n), res.Trace.Format(n))
			}
			// Early-accept termination must not change the outcome: a run
			// with the fast path disabled agrees on verdict and weight.
			resNo, errNo := engine.VerifyText(n, texts[i], engine.Options{NoEarlyAccept: true})
			if errNo != nil {
				t.Fatalf("%q: NoEarlyAccept: %v", texts[i], errNo)
			}
			if resNo.Verdict != res.Verdict || !reflect.DeepEqual(resNo.Weight, res.Weight) {
				t.Fatalf("%q: early accept changed the result: verdict %v/%v weight %v/%v",
					texts[i], res.Verdict, resNo.Verdict, res.Weight, resNo.Weight)
			}
		}
	})
}

// FuzzVerifyModes cross-checks query-scoped network slicing, on or off,
// against the unsliced engine on random instances: slicing promises
// byte-identical results, so any divergence in verdict, trace, failed set
// or weight is a soundness bug in the slice's forward closure.
func FuzzVerifyModes(f *testing.F) {
	f.Add(int64(1), int64(2), false)
	f.Add(int64(42), int64(7), true)
	f.Add(int64(1234), int64(99), false)
	f.Add(int64(-5), int64(0), true)
	f.Fuzz(func(t *testing.T, netSeed, querySeed int64, noSlice bool) {
		rng := rand.New(rand.NewSource(netSeed))
		n := randomNetwork(rng)
		qrng := rand.New(rand.NewSource(querySeed))
		for i := 0; i < 4; i++ {
			qt := randomQuery(qrng, n)
			base, berr := engine.VerifyText(n, qt, engine.Options{NoSlice: true})
			res, err := engine.VerifyText(n, qt, engine.Options{NoSlice: noSlice})
			if (berr != nil) != (err != nil) {
				t.Fatalf("noSlice=%v %q: base err %v, mode err %v", noSlice, qt, berr, err)
			}
			if err != nil {
				continue
			}
			if res.Verdict != base.Verdict {
				t.Fatalf("noSlice=%v %q: verdict %v, unsliced %v", noSlice, qt, res.Verdict, base.Verdict)
			}
			if !reflect.DeepEqual(res.Trace, base.Trace) || !reflect.DeepEqual(res.Failed, base.Failed) {
				t.Fatalf("noSlice=%v %q: witness differs from unsliced\nmode: %s\nbase: %s",
					noSlice, qt, res.Trace.Format(n), base.Trace.Format(n))
			}
			if !reflect.DeepEqual(res.Weight, base.Weight) {
				t.Fatalf("noSlice=%v %q: weight %v, unsliced %v", noSlice, qt, res.Weight, base.Weight)
			}
		}
	})
}

// bruteForceMinWeight enumerates bounded witnesses and returns the minimal
// weight vector, or nil if none found.
func bruteForceMinWeight(net *network.Network, q *query.Query, spec weight.Spec) weight.Vec {
	var best weight.Vec
	forEachWitness(net, q, func(tr network.Trace) {
		v := spec.Eval(weight.EvalTrace(net, tr, nil))
		if best == nil || v.Less(best) {
			best = v
		}
	})
	return best
}

// forEachWitness enumerates all bounded witnesses of the query.
func forEachWitness(net *network.Network, q *query.Query, visit func(network.Trace)) {
	links := net.Topo.NumLinks()
	var subsets [][]topology.LinkID
	subsets = append(subsets, nil)
	if q.MaxFailures >= 1 {
		for i := 0; i < links; i++ {
			subsets = append(subsets, []topology.LinkID{topology.LinkID(i)})
		}
	}
	if q.MaxFailures >= 2 {
		for i := 0; i < links; i++ {
			for j := i + 1; j < links; j++ {
				subsets = append(subsets, []topology.LinkID{topology.LinkID(i), topology.LinkID(j)})
			}
		}
	}
	var headers []labels.Header
	for _, ip := range net.Labels.OfKind(labels.IP) {
		headers = append(headers, labels.Header{ip})
		for _, s := range net.Labels.OfKind(labels.BottomMPLS) {
			headers = append(headers, labels.Header{s, ip})
			for _, m := range net.Labels.OfKind(labels.MPLS) {
				headers = append(headers, labels.Header{m, s, ip})
			}
		}
	}
	for _, sub := range subsets {
		f := network.FailedSet{}
		for _, l := range sub {
			f[l] = true
		}
		for e := 0; e < links; e++ {
			if f[topology.LinkID(e)] {
				continue
			}
			for _, h := range headers {
				if !q.PreNFA.Accepts(headerSyms(h)) {
					continue
				}
				net.Enumerate(topology.LinkID(e), h, f, 6, func(tr network.Trace) bool {
					if q.PathNFA.Accepts(pathSyms(tr)) &&
						q.PostNFA.Accepts(headerSyms(tr[len(tr)-1].Header)) {
						visit(tr)
					}
					return true
				})
			}
		}
	}
}

func bruteForceSatisfiableFuzz(net *network.Network, q *query.Query) bool {
	found := false
	forEachWitness(net, q, func(network.Trace) { found = true })
	return found
}
