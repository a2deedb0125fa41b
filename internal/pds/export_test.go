package pds

// StepRun drives one post* run a pop at a time, so tests can probe the
// partially saturated automaton between any two pops instead of only at
// the run's cadence.
type StepRun struct{ r *postRun }

// NewStepRun prepares a run exactly as PoststarOpts does. Probe needs o to
// enable the early-accept probe (EarlyAccept, Dim 0, FinalStates and
// FinalSpec set).
func NewStepRun(p *PDS, init *Auto, o SatOptions) (*StepRun, error) {
	r, err := newPostRun(p, init, o)
	if err != nil {
		return nil, err
	}
	return &StepRun{r}, nil
}

// Step pops and processes one worklist entry; it reports false, doing
// nothing, once the worklist is empty.
func (s *StepRun) Step() bool {
	if s.r.queue.n == 0 {
		return false
	}
	s.r.process(s.r.queue.pop())
	return true
}

// Probe runs the incremental early-accept probe on the automaton as it
// stands.
func (s *StepRun) Probe() bool { return s.r.probe.reachable(s.r.a) }

// Followed is the number of out-edges the probe has followed so far.
func (s *StepRun) Followed() int64 { return s.r.probe.followed }

// Reached lists the product nodes the probe has reached, as (automaton
// state, spec state) pairs.
func (s *StepRun) Reached() [][2]int {
	out := make([][2]int, len(s.r.sc.prodBuf))
	for i, nd := range s.r.sc.prodBuf {
		out[i] = [2]int{int(nd.s), int(nd.n)}
	}
	return out
}

// Auto is the automaton under saturation.
func (s *StepRun) Auto() *Auto { return s.r.a }

// Close ends the run as PoststarOpts does on return.
func (s *StepRun) Close() { s.r.close() }

// RulePages is the number of page numbers the rule store of p's latest
// on-the-fly run spans.
func RulePages(p *PDS) int { return len(p.pages) }

// StateChunks is the number of chunks a's state table has allocated.
func StateChunks(a *Auto) int { return len(a.states.chunks) }
