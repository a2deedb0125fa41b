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

// eagerDigests are SHA-256 digests of eager builds, recorded before the
// on-the-fly product existed: every rule field in list order, the step
// table, the state count and the pre-reduction rule count. The eager
// product feeds sessions, the Moped baseline and the reduction ablation,
// so its rule list, chain numbering and tags must never move.
var eagerDigests = map[string]string{
	"running-example/over":                         "520bb7609d427e3df56db3f928b30c97bf4cd0aced605e49e58aaf58c0a9b351",
	"running-example/over/no-reductions":           "caabd88187cc7545f15062dc3110927f48d03294a62894c8443ddc834c8a1107",
	"running-example/over/weighted":                "29d9231c06fdd033de76abaf60058cc677254798e218349ca752868bb5c721fd",
	"running-example/over/weighted/no-reductions":  "23a8c96d980a13b27a6387e41a79e707115a626eb49959c5df1b8be61e8dcaec",
	"running-example/under":                        "771bee81aeb4a7bdd3fe2ecc35cf4638d38e3a26621e193b6e7b92ad47d357be",
	"running-example/under/no-reductions":          "a3dfb7d1a526b83581c6778374eda04cbd898d815ec60f3a16045c2d31905457",
	"running-example/under/weighted":               "5dc1c864fbe507c34d150bb419a7d7b36bb2a95a76146b5d3e8de9a9b5caf3f2",
	"running-example/under/weighted/no-reductions": "dd19e3ff247fe51052cea4fcf1782dfdbd38ba773431cfbab179b6c2b305a6e2",
	"zoo/over":                              "d548799da1a1867807c9fdb1f15103242dd003da5816aa869648a1688aa3833d",
	"zoo/over/no-reductions":                "0fa281ba74120e67856b0a00390e87373b26f6e5a6a13d8e11e2051b219124e4",
	"zoo/over/weighted":                     "015b83ee3ffdc9c3b74ec607602686cd94ddd283cd6e0d5008ebb1977845a2ed",
	"zoo/over/weighted/no-reductions":       "d83a6cff60c68914603399b89dd631829b7367765fe84cf7a466301a33e7c1aa",
	"zoo/under":                             "cfedfcba93096006e45c8fb7643ccd6f9b6c93ecf6e01f8f2a9fef0cd8cd387a",
	"zoo/under/no-reductions":               "10f4a2a35d47e8430450e706db607c9fd4857c639fbd39c0aca7454875bbc8b9",
	"zoo/under/weighted":                    "6402afb68e6e114294816b594b62794b65e5f4c42639c1ae6a1463ecb9747ed9",
	"zoo/under/weighted/no-reductions":      "a18cca35ade5455ea40cb99d53edd9dbd881e07e142955c34360388dc949b3f7",
	"nordunet/over":                         "dabe8d67036add70be58b01a13831b7fe02c553b9a37d2a5b9132a84ba8bcfe0",
	"nordunet/over/no-reductions":           "f8ab2aaeb729a35cf1c46ab521a2c653a9dd59428d59f58dae18b999584f5822",
	"nordunet/over/weighted":                "1bbc9ac5b2024fd33dc0a7ed96d8a49381b9410b11a4105548fa91204f00cf72",
	"nordunet/over/weighted/no-reductions":  "36fad4e99d34895439408df1b68d99a1487e242cc69efba9501dfe0475c0244d",
	"nordunet/under":                        "33c3bdc01ff6bcab57bbe19070e1ec3828a25f528a0338aaff5b31ad7dd74239",
	"nordunet/under/no-reductions":          "993c6a7dbec4736095558b74cde142552d5bb04f63dce704d28728cd82891c90",
	"nordunet/under/weighted":               "7b34a963975d16f8b6ee387f9a24ea76671b76dfbb24533d6caedebce3832e1a",
	"nordunet/under/weighted/no-reductions": "be1e6b8cb45afef2be927d2b35df99d602232112598cd5415aa896691256fdbc",
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
		put(uint64(int64(r.Tag)))
		w := sys.PDS.Weights.Of(&r)
		put(uint64(len(w)))
		for _, x := range w {
			put(x)
		}
	}
	put(uint64(len(sys.Steps)))
	for _, st := range sys.Steps {
		put(uint64(st.Out))
		put(uint64(st.Group))
	}
	fmt.Fprintf(h, "%x", sha256.Sum256(buf))
}
