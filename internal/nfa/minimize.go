package nfa

import (
	"sort"
	"strconv"
	"strings"
)

// Minimize returns the minimal deterministic automaton for the receiver's
// language, using Moore's partition refinement over the minterm alphabet.
// The receiver may be any NFA; it is determinised (and completed) first,
// so it fails as Determinize does.
func (a *NFA) Minimize() (*NFA, error) {
	d, err := a.Determinize()
	if err != nil {
		return nil, err
	}
	minterms := d.Minterms()
	n := d.NumStates()
	if n == 0 {
		return d, nil
	}

	// succ[s][m] = successor of state s on minterm m (complete DFA: always
	// exactly one).
	succ := make([][]int, n)
	for s := 0; s < n; s++ {
		succ[s] = make([]int, len(minterms))
		for mi, mt := range minterms {
			x, ok := mt.First()
			if !ok {
				succ[s][mi] = s // empty minterm cannot occur, but stay safe
				continue
			}
			succ[s][mi] = -1
			for _, arc := range d.Arcs(s) {
				if arc.Set.Has(x) {
					succ[s][mi] = arc.To
					break
				}
			}
		}
	}

	// Initial partition: accepting vs non-accepting.
	block := make([]int, n)
	for s := 0; s < n; s++ {
		if d.Accepting(s) {
			block[s] = 1
		}
	}
	numBlocks := 2
	for {
		// Signature: own block + successor blocks per minterm.
		sig := make([]string, n)
		for s := 0; s < n; s++ {
			var b strings.Builder
			b.WriteString(strconv.Itoa(block[s]))
			for mi := range minterms {
				b.WriteByte(',')
				t := succ[s][mi]
				if t < 0 {
					b.WriteByte('-')
				} else {
					b.WriteString(strconv.Itoa(block[t]))
				}
			}
			sig[s] = b.String()
		}
		idx := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			id, ok := idx[sig[s]]
			if !ok {
				id = len(idx)
				idx[sig[s]] = id
			}
			next[s] = id
		}
		if len(idx) == numBlocks {
			break
		}
		numBlocks = len(idx)
		block = next
	}

	// Build the quotient automaton. Block of the start state becomes the
	// new start; merge minterm sets per (block, target block).
	out := New(a.universe)
	mapped := make([]State, numBlocks)
	for i := range mapped {
		mapped[i] = -1
	}
	mapped[block[d.Start()]] = out.Start()
	for b := 0; b < numBlocks; b++ {
		if mapped[b] == -1 {
			mapped[b] = out.AddState()
		}
	}
	// Representative state per block (deterministic: smallest index).
	rep := make([]int, numBlocks)
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < n; s++ {
		if rep[block[s]] == -1 || s < rep[block[s]] {
			rep[block[s]] = s
		}
	}
	type pair struct{ from, to int }
	merged := map[pair]*Set{}
	for b := 0; b < numBlocks; b++ {
		s := rep[b]
		out.SetAccept(mapped[b], d.Accepting(s))
		for mi, mt := range minterms {
			t := succ[s][mi]
			if t < 0 {
				continue
			}
			k := pair{b, block[t]}
			if merged[k] == nil {
				merged[k] = NewSet(a.universe)
			}
			merged[k] = merged[k].Union(mt)
		}
	}
	keys := make([]pair, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		out.AddArc(mapped[k.from], merged[k], mapped[k.to])
	}
	return out, nil
}
