package main

// Expected outcomes. paper-250k verifies a fixed snapshot, so its Table 1
// verdicts hold for every seed; the seeded queries' verdicts and the
// sweep's aggregates are recorded for the default seed, 1. Other seeds are
// checked by the seed-independent checks: witness re-validation,
// repeat-consistency, from-scratch spot checks and (daemon-whatif) the
// expectations set-up computes itself.

var paperTable1Verdicts = map[string]string{
	"<smpls ip> [.#mal1] .* [.#sto2] <smpls ip> 1":                       "satisfied",
	"<smpls ip> [.#mal1] .* [.#hel2] <(mpls* smpls)? ip> 1":              "satisfied",
	"<ip> [.#ams2] .* [.#hel2] <ip> 0":                                   "satisfied",
	"<[$400000aams2_osl1] ip> [.#ams2] .* [.#mal1] .* [.#osl1] <. ip> 0": "satisfied",
	"<[$400000aams2_osl1] ip> [.#ams2] .* [.#mal1] .* [.#osl1] <. ip> 1": "satisfied",
	"<smpls? ip> .* <. smpls ip> 0":                                      "satisfied",
}

var paperSeed1Verdicts = map[string]string{
	"<ip> [.#trd1] .* [.#pra1] <ip> 1":                      "satisfied",
	"<smpls ip> [.#tam1] .* [.#trd1] <(mpls* smpls)? ip> 1": "satisfied",
}

// sweepExpect is one invariant's column of the sweep-d2 grid, aggregated.
type sweepExpect struct {
	verdicts map[string]int
	breaking int
	minimal  string // fmt.Sprint of the minimal breaking sets
}

// sweepSeed1 is the expected grid for seed 1: reach R0→R17 and tunnel
// reach R15→R5, both at k=1, over the 3,403 failure scenarios.
var sweepSeed1 = []sweepExpect{
	{
		verdicts: map[string]int{"satisfied": 3240, "unsatisfied": 163},
		breaking: 163,
		minimal:  "[[R0.to17-15#R17.fr0-15] [X-R0.xo#R0.xi]]",
	},
	{
		verdicts: map[string]int{"unsatisfied": 3403},
		breaking: 0,
		minimal:  "[]",
	},
}
