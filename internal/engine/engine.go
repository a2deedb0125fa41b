// Package engine implements the AalWiNes verification pipeline of §4.2:
// build the over-approximating pushdown system, saturate it, and if the
// query is satisfied attempt to reconstruct and validate a witness trace;
// fall back to the under-approximating system (global failure counter) when
// the over-approximation's witness is infeasible; report Inconclusive only
// when both directions fail to decide. The weighted engine threads a
// minimisation vector through the same pipeline (Problem 2, the minimum
// witness problem) and returns a minimal witness trace.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
	"aalwines/internal/weight"
)

// Pipeline metrics: one histogram per phase (mirroring the Stats fields)
// plus run/verdict/error counters. The under phase is only observed on
// runs that actually consulted the under-approximation, so its count is
// also the fallback rate.
var (
	mRuns   = obs.GetCounter("engine_runs_total")
	mErrors = obs.GetCounter("engine_errors_total")
	mPhases = [4]*obs.Histogram{
		obs.GetHistogram(`engine_phase_seconds{phase="build"}`, nil),
		obs.GetHistogram(`engine_phase_seconds{phase="over"}`, nil),
		obs.GetHistogram(`engine_phase_seconds{phase="under"}`, nil),
		obs.GetHistogram(`engine_phase_seconds{phase="reconstruct"}`, nil),
	}
	mVerdicts = [3]*obs.Counter{
		obs.GetCounter(`engine_verdicts_total{verdict="unsatisfied"}`),
		obs.GetCounter(`engine_verdicts_total{verdict="satisfied"}`),
		obs.GetCounter(`engine_verdicts_total{verdict="inconclusive"}`),
	}
	// mGenerated counts the rules on-the-fly saturations generated, per
	// approximation direction (engine.Stats.{Over,Under}RulesGenerated).
	mGenerated = [2]*obs.Counter{
		obs.GetCounter(`engine_rules_generated_total{approx="over"}`),
		obs.GetCounter(`engine_rules_generated_total{approx="under"}`),
	}
	// mEarlyFallback counts runs where the early-accept fast path produced a
	// witness that failed validation, forcing a full re-saturation. A high
	// rate relative to pds_early_accept_total means the fast path is paying
	// for itself rarely and NoEarlyAccept may be the better configuration.
	mEarlyFallback = obs.GetCounter("engine_early_accept_fallback_total")
)

// Verdict is the outcome of a verification run.
type Verdict uint8

const (
	// Unsatisfied: no witness trace exists (conclusive, via the
	// over-approximation).
	Unsatisfied Verdict = iota
	// Satisfied: a concrete witness trace was produced and validated.
	Satisfied
	// Inconclusive: the over-approximation is satisfiable but no feasible
	// witness could be produced; a more expensive analysis would be needed.
	Inconclusive
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Unsatisfied:
		return "unsatisfied"
	case Satisfied:
		return "satisfied"
	default:
		return "inconclusive"
	}
}

// Saturator abstracts the post* implementation so the Moped-style baseline
// can plug in. Implementations must behave like pds.PoststarOpts with only
// Dim and Budget set.
type Saturator func(p *pds.PDS, init *pds.Auto, dim int, budget int64) (*pds.Result, error)

// Options configure a verification run.
type Options struct {
	// Spec enables the weighted engine with the given minimisation vector.
	Spec weight.Spec
	// Dist overrides the link distance function for the Distance quantity.
	Dist weight.DistanceFunc
	// NoReductions disables the pre-saturation reduction pass (ablation).
	NoReductions bool
	// OverOnly disables the under-approximation fallback: runs that would
	// consult it return Inconclusive directly (ablation for the "Dual"
	// design; P-Rex-style single-sided analysis).
	OverOnly bool
	// Budget bounds the saturation work per direction (0 = unlimited); an
	// exhausted budget yields ErrBudget, the analogue of the paper's
	// 10-minute timeout.
	Budget int64
	// NoEarlyAccept disables early-accept termination of the unweighted
	// over-approximation saturation (ablation). By default the engine stops
	// saturating as soon as an accepting configuration is reachable and
	// tries to validate that witness immediately, re-saturating to the
	// fixed point only if validation fails. Unsatisfied verdicts are the
	// same either way; a Satisfied witness may differ. Early accept can stop
	// on a feasible witness that the fixed point's minimum-cost search does
	// not return first, so a run that would end Inconclusive first tries up
	// to maxWitnessAlternatives accepting configurations of the fixed point,
	// cheapest first. Only a feasible witness beyond that bound can still
	// make the two modes disagree (Satisfied with early accept, Inconclusive
	// without).
	NoEarlyAccept bool
	// NoSlice builds the eager, reduced product instead of the on-the-fly
	// one (ablation). By default post* generates a rule only when it first
	// reaches the rule's head (translate.Options.Slice), so only the slice
	// of the network the query explores is ever built; results are
	// byte-identical either way, only build work and rule counts differ.
	// NoReductions and a Saturate override also build eagerly: the
	// reduction and the Moped baseline need the whole product.
	NoSlice bool
	// Saturate overrides the saturation backend (nil = pds.PoststarOpts).
	Saturate Saturator
	// Cache, when non-nil and serving the verified network, is a scenario
	// session's translation cache: the session's overlays share eager
	// systems assembled from its rule blocks, with a fresh initial
	// automaton cloned per run. Every other run builds its own system.
	// Runs with a Dist override bypass the cache (functions are not
	// keyable).
	Cache *translate.SessionCache
}

// Stats reports sizes and timings of a run. OverRules, OverRulesPre and
// UnderRules count the rules of the built system before saturation, so
// they are 0 for the on-the-fly product; its rules are counted as the
// saturations generate them, in OverRulesGenerated and
// UnderRulesGenerated (0 for an eager build).
type Stats struct {
	OverRules           int
	OverRulesPre        int // before reduction
	UnderRules          int
	OverRulesGenerated  int // summed over the early-accept and fixed-point runs
	UnderRulesGenerated int
	UnderUsed           bool
	TransOver           int // saturated automaton transitions (over direction)
	TransUnder          int
	// EarlyAccepted reports that the over-approximation saturation stopped
	// at the early-accept check rather than the fixed point. TransOver then
	// counts the partial automaton unless a fallback re-saturation ran.
	EarlyAccepted   bool
	BuildTime       time.Duration
	OverTime        time.Duration
	UnderTime       time.Duration
	ReconstructTime time.Duration
}

// Result is the outcome of Verify.
type Result struct {
	Verdict Verdict
	// Trace is a witness trace when Satisfied.
	Trace network.Trace
	// Failed is a minimum failed-link set enabling the trace.
	Failed network.FailedSet
	// Weight is the witness weight under the spec (nil when unweighted).
	Weight weight.Vec
	Stats  Stats
}

// ErrBudget is surfaced when the work budget is exhausted; callers treat it
// as a timeout.
var ErrBudget = pds.ErrBudget

// ErrorCode classifies a verification error for machine consumption:
// "budget-exhausted" for an exhausted saturation budget (the server-side
// analogue of the paper's 10-minute timeout), "deadline-exceeded" for an
// expired per-query deadline, "cancelled" for a cancelled run, and
// "query-error" for everything else (parse and validation failures). The
// HTTP routes, batch items, sweep cells and watch cells all use this one
// vocabulary, so clients can switch on it.
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrBudget):
		return "budget-exhausted"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline-exceeded"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "query-error"
	}
}

// QueryError reports that a query text does not parse against the network.
// Callers that check a set of queries before running any (watch and sweep
// invariants) return it for the first that fails, so a client learns which
// query to fix; ErrorCode classifies it "query-error". The message is the
// parser's, which already quotes the query.
type QueryError struct {
	Query string
	Err   error
}

func (e *QueryError) Error() string { return e.Err.Error() }

func (e *QueryError) Unwrap() error { return e.Err }

// Verify runs the full pipeline for a query on a network.
func Verify(net *network.Network, q *query.Query, opts Options) (Result, error) {
	return VerifyCtx(context.Background(), net, q, opts)
}

// VerifyCtx is Verify with cooperative cancellation: when ctx is cancelled
// (or its deadline passes) the run aborts between phases and inside
// saturation, returning ctx's error. Cancellation only applies to the
// default saturation backend; an explicit Saturate override is still
// bounded by Budget and checked between phases.
//
// Stats is populated consistently on every return path, including errors:
// whatever phases completed (or were in flight when the budget blew) have
// their timings and sizes filled in, so callers can report partial stats
// alongside a timeout.
func VerifyCtx(ctx context.Context, net *network.Network, q *query.Query, opts Options) (Result, error) {
	res, err := verifyCtx(ctx, net, q, opts)
	mRuns.Inc()
	mGenerated[0].Add(int64(res.Stats.OverRulesGenerated))
	mGenerated[1].Add(int64(res.Stats.UnderRulesGenerated))
	mPhases[0].ObserveDuration(res.Stats.BuildTime)
	mPhases[1].ObserveDuration(res.Stats.OverTime)
	if res.Stats.UnderUsed {
		mPhases[2].ObserveDuration(res.Stats.UnderTime)
	}
	if res.Stats.ReconstructTime > 0 {
		mPhases[3].ObserveDuration(res.Stats.ReconstructTime)
	}
	if err != nil {
		mErrors.Inc()
	} else if int(res.Verdict) < len(mVerdicts) {
		mVerdicts[res.Verdict].Inc()
	}
	return res, err
}

func verifyCtx(ctx context.Context, net *network.Network, q *query.Query, opts Options) (Result, error) {
	sat := opts.Saturate
	if sat == nil {
		stop := ctx.Done()
		sat = func(p *pds.PDS, init *pds.Auto, dim int, budget int64) (*pds.Result, error) {
			return pds.PoststarOpts(p, init, pds.SatOptions{Dim: dim, Budget: budget, Stop: stop})
		}
	}
	build := func(mode translate.Mode) (*translate.System, *pds.Auto) {
		topts := translate.Options{
			Mode:         mode,
			Spec:         opts.Spec,
			Dist:         opts.Dist,
			NoReductions: opts.NoReductions,
			Slice:        !opts.NoSlice && !opts.NoReductions && opts.Saturate == nil,
		}
		if opts.Cache != nil {
			if sys, init, ok := opts.Cache.Get(net, q, topts); ok {
				return sys, init
			}
		}
		sys := translate.Build(net, q, topts)
		return sys, sys.InitAuto()
	}
	var res Result
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Over-approximation.
	t0 := time.Now()
	over, overInit := build(translate.Over)
	res.Stats.BuildTime = time.Since(t0)
	res.Stats.OverRules = len(over.PDS.Rules)
	res.Stats.OverRulesPre = over.RulesBeforeReduction

	// Early-accept applies to unweighted runs on the default backend: the
	// saturation stops as soon as an accepting configuration is reachable,
	// and the witness-validation pass below decides whether that was enough.
	early := opts.Saturate == nil && !opts.NoEarlyAccept && over.Dim == 0

	t1 := time.Now()
	var overRes *pds.Result
	var err error
	if early {
		overRes, err = pds.PoststarOpts(over.PDS, overInit, pds.SatOptions{
			Budget:      opts.Budget,
			Stop:        ctx.Done(),
			EarlyAccept: true,
			FinalStates: over.FinalStates,
			FinalSpec:   over.FinalSpec,
		})
	} else {
		overRes, err = sat(over.PDS, overInit, over.Dim, opts.Budget)
	}
	res.Stats.OverTime = time.Since(t1)
	res.Stats.OverRulesGenerated = over.Generated()
	if err != nil {
		if cerr := ctxError(ctx, err); cerr != nil {
			return res, cerr
		}
		return res, fmt.Errorf("engine: over-approximation: %w", err)
	}
	res.Stats.TransOver = overRes.Auto.NumTrans()
	res.Stats.EarlyAccepted = overRes.EarlyAccepted

	// tryWitness searches r for accepting configurations — the cheapest, or
	// up to alternatives of them in cost order — and validates their
	// witnesses in turn; the first feasible one settles the run as
	// Satisfied. found reports whether an accepting configuration exists at
	// all. Search, reconstruction and validation count as reconstruction
	// time.
	tryWitness := func(sys *translate.System, r *pds.Result, alternatives int) (satisfied, found bool) {
		t := time.Now()
		defer func() { res.Stats.ReconstructTime += time.Since(t) }()
		var accs []pds.Accepted
		if alternatives > 0 {
			accs = r.FindAcceptingN(sys.FinalStates, sys.FinalSpec, alternatives)
		} else if acc, ok := r.FindAccepting(sys.FinalStates, sys.FinalSpec); ok {
			accs = []pds.Accepted{acc}
		}
		for _, acc := range accs {
			tr, err := decode(sys, r, acc)
			if err != nil {
				continue // an undecodable witness is no witness
			}
			if feas := net.Feasible(tr, q.MaxFailures); feas.Feasible {
				res.Verdict = Satisfied
				res.Trace = tr
				res.Failed = feas.Failed
				res.Weight = traceWeight(net, tr, opts)
				return true, true
			}
		}
		return false, len(accs) > 0
	}

	satisfied, found := tryWitness(over, overRes, 0)
	if satisfied {
		return res, nil
	}
	if overRes.EarlyAccepted {
		// The partial automaton's witness did not validate (infeasible or
		// undecodable). Any verdict other than Satisfied needs the fixed
		// point, so re-saturate fully from a fresh initial automaton and
		// rejoin the normal pipeline; from here on behaviour is identical
		// to a run with NoEarlyAccept set.
		mEarlyFallback.Inc()
		if err := ctx.Err(); err != nil {
			return res, err
		}
		tb := time.Now()
		overInit = over.InitAuto()
		res.Stats.BuildTime += time.Since(tb)
		t := time.Now()
		overRes, err = sat(over.PDS, overInit, over.Dim, opts.Budget)
		res.Stats.OverTime += time.Since(t)
		res.Stats.OverRulesGenerated += over.Generated()
		if err != nil {
			if cerr := ctxError(ctx, err); cerr != nil {
				return res, cerr
			}
			return res, fmt.Errorf("engine: over-approximation: %w", err)
		}
		res.Stats.TransOver = overRes.Auto.NumTrans()
		if satisfied, found = tryWitness(over, overRes, 0); satisfied {
			return res, nil
		}
	}
	if !found {
		res.Verdict = Unsatisfied
		return res, nil
	}

	if opts.OverOnly {
		res.Verdict = Inconclusive
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Under-approximation with a global failure budget.
	res.Stats.UnderUsed = true
	under, underInit := build(translate.Under)
	res.Stats.UnderRules = len(under.PDS.Rules)
	t3 := time.Now()
	underRes, err := sat(under.PDS, underInit, under.Dim, opts.Budget)
	res.Stats.UnderTime = time.Since(t3)
	res.Stats.UnderRulesGenerated = under.Generated()
	if err != nil {
		if cerr := ctxError(ctx, err); cerr != nil {
			return res, cerr
		}
		return res, fmt.Errorf("engine: under-approximation: %w", err)
	}
	res.Stats.TransUnder = underRes.Auto.NumTrans()
	if satisfied, _ := tryWitness(under, underRes, 0); satisfied {
		return res, nil
	}
	// The fixed point's cheapest witness was infeasible, but a costlier
	// accepting configuration may not be: which one the search meets first
	// must not decide the verdict.
	if satisfied, _ := tryWitness(over, overRes, maxWitnessAlternatives); satisfied {
		return res, nil
	}
	res.Verdict = Inconclusive
	return res, nil
}

// maxWitnessAlternatives bounds how many accepting configurations of the
// fixed-point over-approximation a run tries, cheapest first, before it
// reports Inconclusive.
const maxWitnessAlternatives = 8

// ctxError translates a saturation stop triggered by ctx into ctx's own
// error (context.Canceled or DeadlineExceeded); it returns nil for
// unrelated saturation failures.
func ctxError(ctx context.Context, err error) error {
	if errors.Is(err, pds.ErrStopped) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return nil
}

// decode reconstructs the derivation of acc and maps it to a network trace.
func decode(sys *translate.System, r *pds.Result, acc pds.Accepted) (network.Trace, error) {
	init, rules, err := r.Reconstruct(acc)
	if err != nil {
		return nil, err
	}
	return sys.DecodeTrace(init, rules)
}

func traceWeight(net *network.Network, tr network.Trace, opts Options) weight.Vec {
	if opts.Spec == nil {
		return nil
	}
	return opts.Spec.Eval(weight.EvalTrace(net, tr, opts.Dist))
}

// VerifyText parses and verifies a textual query; a convenience wrapper
// used by the CLI and examples.
func VerifyText(net *network.Network, queryText string, opts Options) (Result, error) {
	return VerifyTextCtx(context.Background(), net, queryText, opts)
}

// VerifyTextCtx is VerifyText with cooperative cancellation, mirroring
// VerifyCtx.
func VerifyTextCtx(ctx context.Context, net *network.Network, queryText string, opts Options) (Result, error) {
	q, err := query.Parse(queryText, net)
	if err != nil {
		return Result{}, err
	}
	return VerifyCtx(ctx, net, q, opts)
}
