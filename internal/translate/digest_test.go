package translate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

// eagerDigests are SHA-256 digests of eager builds: every rule field in
// list order, with each tag replaced by the (out-link, group) of the
// routing entry it decodes to, plus the state count and the pre-reduction
// rule count. They were recorded while tags still indexed a per-build step
// table, decoding through it; they hold with tags that number routing
// entries. The eager product feeds sessions, the Moped baseline and the
// reduction ablation, so its rule list, chain numbering, weights and the
// steps its tags decode to must never move.
var eagerDigests = map[string]string{
	"running-example/over":                         "cfa98313b1655366d761c673e5b08511dd826b2d136e1a69209af8d4683cbfaa",
	"running-example/over/no-reductions":           "8b5358bdb4bbe4735d90ca3b56330f3f6c190fb1562309d83da173ccf8e29450",
	"running-example/over/weighted":                "2aaf89b397a46c257f90bbe58b20e4c736c70a2bbbafa79b63cf1a8c7efd8980",
	"running-example/over/weighted/no-reductions":  "d222aca28ee68535016b9a6823fac6607181f0e136c69d5dd8e9d40249550d00",
	"running-example/under":                        "21fbb97f52ad63e5a615b92de7489d5f43cb22ca31e06f548ceb2847eee547f3",
	"running-example/under/no-reductions":          "ec752fe4fc247531d6841723481552e95040deb96d7bae99fe3d15230f21b762",
	"running-example/under/weighted":               "98abc2098e5c331e68fbdbe8e833879447a7c68c66ec292e244bbf54ae1456c7",
	"running-example/under/weighted/no-reductions": "34fe96f13590d6ac991fbaea9f0bb26ae05c889dba0ab97b39f61c3baf984784",
	"zoo/over":                              "4f2cdadc3a3d3040253ab6c7660a1e89334ad9f179fbf0f705a750b763dfe5f0",
	"zoo/over/no-reductions":                "8ae69594227707fd1663629f321246a6e14865dcfc6d1a54b15f4cb1089cf195",
	"zoo/over/weighted":                     "225483af82b0068c65c5d4047b9631bff035a439aa07e55c35143a1cec454aca",
	"zoo/over/weighted/no-reductions":       "7c8b141a1b0fb717ee9a0ac9d392d883024cda61b6b4e58c6058c5acdb3f101e",
	"zoo/under":                             "e966d80a63d342e5e6247aadb81d585a157e4afb2114f06481770c477acc398b",
	"zoo/under/no-reductions":               "5a4dc62af3770c9673485ea3a9ae579563237a04e200356fa9c20ddc0871a32c",
	"zoo/under/weighted":                    "039ef653fde328ad3e5fd3ef861b3f054242916cc159dacabe30fdcda0f48f39",
	"zoo/under/weighted/no-reductions":      "0df4e378db1de54878f859eba1181adea5c52f49f6899b22dd91e71575791f4a",
	"nordunet/over":                         "d3f9ababc2f8de7da9561b2a881b6dbb43c46d6ce528ea2efbedbd16e050d8e1",
	"nordunet/over/no-reductions":           "1fcb896194abd5b43da30eaefb39a8e3c2530d887d671c92d8f0814a90b88eb2",
	"nordunet/over/weighted":                "bbd3d7291ad7ab00a48bd0c5771d7d4d5db5df5bca524d0fc70d08f442909d58",
	"nordunet/over/weighted/no-reductions":  "99cb49776a3671d485dd331b906a96935c5790ca645b6a64f507fce8570a3d9d",
	"nordunet/under":                        "0ed6e72c9c94e4cba5ffc8feb643d58f32eb4733a803f32efe33192cd32bbc09",
	"nordunet/under/no-reductions":          "e5f4a39f34f33519ab355467e6354bd9fca76e9f793348152c6b6274d444b478",
	"nordunet/under/weighted":               "057bd44494edf006265c80a753fc5b8e146c55e101317880776c6958bac51739",
	"nordunet/under/weighted/no-reductions": "c9732eb2422e8d7e95b7ca35321e41949230e065520089f1526614eeb0a01b93",
}

// digestNets returns the digest corpus: each network with its queries.
func digestNets(t *testing.T) map[string]struct {
	net   *network.Network
	texts []string
} {
	t.Helper()
	type nq = struct {
		net   *network.Network
		texts []string
	}
	out := map[string]nq{
		"running-example": {gen.RunningExample().Network, []string{
			"<ip> [.#v0] .* [v3#.] <ip> 0",
			"<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
			"<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
			"<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
		}},
	}
	zoo := gen.Zoo(gen.ZooOpts{Routers: 16, Seed: 3, Protection: true})
	z := nq{net: zoo.Net}
	for _, q := range zoo.Queries(4, 5) {
		z.texts = append(z.texts, q.Text)
	}
	out["zoo"] = z
	nord := gen.Nordunet(gen.NordOpts{Services: 2, EdgeRouters: 10, Seed: 1})
	n := nq{net: nord.Net}
	for _, q := range nord.Table1Queries() {
		n.texts = append(n.texts, q.Text)
	}
	out["nordunet"] = n
	return out
}

// TestEagerDigest rebuilds every digest variant — over and under,
// weighted and unweighted, with and without the reduction — and compares
// against the recorded digests.
func TestEagerDigest(t *testing.T) {
	spec := weight.Spec{{{Coeff: 1, Q: weight.Hops}}, {{Coeff: 1, Q: weight.Failures}}}
	for name, nq := range digestNets(t) {
		qs := make([]*query.Query, len(nq.texts))
		for i, text := range nq.texts {
			qs[i] = mustParse(t, text, nq.net)
		}
		for _, mode := range []translate.Mode{translate.Over, translate.Under} {
			for _, weighted := range []bool{false, true} {
				for _, noRed := range []bool{false, true} {
					key := name + map[translate.Mode]string{translate.Over: "/over", translate.Under: "/under"}[mode]
					opts := translate.Options{Mode: mode, NoReductions: noRed}
					if weighted {
						key += "/weighted"
						opts.Spec = spec
					}
					if noRed {
						key += "/no-reductions"
					}
					h := sha256.New()
					for _, q := range qs {
						digestSystem(h, translate.Build(nq.net, q, opts))
					}
					got := hex.EncodeToString(h.Sum(nil))
					if want := eagerDigests[key]; got != want {
						t.Errorf("%s: digest %s, want %s", key, got, want)
					}
				}
			}
		}
	}
}

// digestSystem writes every field of an eager build that saturation or
// decoding can observe.
func digestSystem(h interface{ Write([]byte) (int, error) }, sys *translate.System) {
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(uint64(sys.PDS.NumStates))
	put(uint64(sys.RulesBeforeReduction))
	put(uint64(len(sys.PDS.Rules)))
	for _, r := range sys.PDS.Rules {
		put(uint64(r.FromState))
		put(uint64(r.FromSym))
		put(uint64(r.ToState))
		put(uint64(r.Kind))
		put(uint64(r.Sym1))
		put(uint64(r.Sym2))
		if r.Tag < 0 {
			put(^uint64(0))
		} else {
			e, group := sys.Net.Routing.Entry(r.Tag)
			put(uint64(e.Out))
			put(uint64(group))
		}
		w := sys.PDS.Weights.Of(&r)
		put(uint64(len(w)))
		for _, x := range w {
			put(x)
		}
	}
	fmt.Fprintf(h, "%x", sha256.Sum256(buf))
}
