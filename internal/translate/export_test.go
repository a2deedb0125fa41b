package translate

import "aalwines/internal/pds"

// ReduceRules runs the reduction over rules, a copy of the unreduced eager
// product sys holds, and returns the rules it keeps.
func ReduceRules(sys *System, rules []pds.Rule) []pds.Rule {
	return reduceRules(rules, sys.PDS.NumStates, (&builder{System: sys}).topSeeds(), topThreshold)
}

// OracleReduceRules is ReduceRules computed by the round-robin oracle.
func OracleReduceRules(sys *System, rules []pds.Rule) []pds.Rule {
	return oracleReduce(rules, sys.PDS.NumStates, (&builder{System: sys}).topSeeds(), topThreshold).kept
}
