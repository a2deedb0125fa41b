// Package cli holds the request plumbing shared by the command-line tools
// and the HTTP API: loading or generating networks, applying location
// data, resolving engine requests and rendering verification results.
package cli

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/gml"
	"aalwines/internal/isis"
	"aalwines/internal/loc"
	"aalwines/internal/moped"
	"aalwines/internal/network"
	"aalwines/internal/weight"
	"aalwines/internal/xmlio"
)

// NetFlags describe where a network comes from.
type NetFlags struct {
	// Topo and Route are XML file paths (Appendix A format).
	Topo, Route string
	// ISIS is a mapping-file path for an IS-IS snapshot import.
	ISIS string
	// GML is a Topology Zoo GML file; the MPLS dataplane is synthesised on
	// it with Edge edge routers (default min(12, routers)).
	GML string
	// Builtin selects a generated network: "running-example", "nordunet",
	// "zoo", "fattree", "rings" or "backbone".
	Builtin string
	// Locations is an optional JSON location file.
	Locations string
	// Generator knobs.
	Routers  int
	Seed     int64
	Services int
	Edge     int
}

// Load builds the network described by the flags.
func Load(f NetFlags) (*network.Network, error) {
	switch {
	case f.Topo != "" || f.Route != "":
		if f.Topo == "" || f.Route == "" {
			return nil, fmt.Errorf("cli: -topo and -routing must be given together")
		}
		tf, err := os.Open(f.Topo)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		rf, err := os.Open(f.Route)
		if err != nil {
			return nil, err
		}
		defer rf.Close()
		net, err := xmlio.ReadNetwork(tf, rf)
		if err != nil {
			return nil, err
		}
		return applyLocations(net, f.Locations)
	case f.GML != "":
		gf, err := os.Open(f.GML)
		if err != nil {
			return nil, err
		}
		defer gf.Close()
		net, err := gml.ReadTopology(gf)
		if err != nil {
			return nil, err
		}
		edgeCount := f.Edge
		if edgeCount == 0 {
			edgeCount = 12
			if n := net.Topo.NumRouters(); n < edgeCount {
				edgeCount = n
			}
		}
		edge := gen.PickEdgeRouters(net, edgeCount, f.Seed)
		gen.Build(net, edge, gen.SynthOpts{Protection: true, Services: f.Services})
		return applyLocations(net, f.Locations)
	case f.ISIS != "":
		dir, base := filepath.Split(f.ISIS)
		if dir == "" {
			dir = "."
		}
		net, err := isis.Load(os.DirFS(dir), base)
		if err != nil {
			return nil, err
		}
		return applyLocations(net, f.Locations)
	default:
		net, err := builtin(f)
		if err != nil {
			return nil, err
		}
		return applyLocations(net, f.Locations)
	}
}

func builtin(f NetFlags) (*network.Network, error) {
	switch strings.ToLower(f.Builtin) {
	case "", "running-example", "example":
		return gen.RunningExample().Network, nil
	case "nordunet":
		return gen.Nordunet(gen.NordOpts{
			Services: orInt(f.Services, 2), EdgeRouters: f.Edge, Seed: f.Seed,
		}).Net, nil
	case "zoo":
		return gen.Zoo(gen.ZooOpts{
			Routers: orInt(f.Routers, 84), EdgeRouters: f.Edge,
			Protection: true, Seed: f.Seed,
		}).Net, nil
	case "fattree", "fat-tree":
		// -routers is a size target: the smallest even arity k whose
		// 5k²/4-switch fabric reaches it (default k=8).
		k := 8
		if f.Routers > 0 {
			for k = 2; 5*k*k/4 < f.Routers; k += 2 {
			}
		}
		return gen.FatTree(gen.FatTreeOpts{
			K: k, EdgeRouters: f.Edge, Services: f.Services, Seed: f.Seed,
		}).Net, nil
	case "rings", "ring-of-rings":
		// -routers is a size target at the default ring size of 8
		// (each ring contributes 8 routers plus its hub).
		rings := 0
		if f.Routers > 0 {
			rings = f.Routers / 9
			if rings < 3 {
				rings = 3
			}
		}
		return gen.RingOfRings(gen.RingOfRingsOpts{
			Rings: rings, EdgeRouters: f.Edge, Services: f.Services, Seed: f.Seed,
		}).Net, nil
	case "backbone":
		// -routers is a size target: an 8-router core plus PoPs.
		pops := 0
		if f.Routers > 8 {
			pops = f.Routers - 8
		}
		return gen.Backbone(gen.BackboneOpts{
			Pops: pops, EdgeRouters: f.Edge, Services: f.Services, Seed: f.Seed,
		}).Net, nil
	default:
		return nil, fmt.Errorf("cli: unknown builtin network %q", f.Builtin)
	}
}

func orInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func applyLocations(net *network.Network, path string) (*network.Network, error) {
	if path == "" {
		return net, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := loc.Read(f, net); err != nil {
		return nil, err
	}
	return net, nil
}

// EngineRequest is a client's engine configuration: the engine flags of
// cmd/aalwines, and the engine fields every HTTP verify and sweep body
// embeds.
type EngineRequest struct {
	// Weight is an optional minimisation vector, e.g.
	// "Hops, Failures + 3*Tunnels".
	Weight string `json:"weight,omitempty"`
	// Engine selects "dual" (the default, also "") or "moped".
	Engine string `json:"engine,omitempty"`
	// Budget bounds saturation work (0 = unlimited); the daemon caps it
	// at its MaxBudget.
	Budget int64 `json:"budget,omitempty"`
	// GeoDistance uses great-circle distances for the Distance quantity.
	GeoDistance bool `json:"geoDistance,omitempty"`
	// NoReductions disables the reduction pass (diagnostics).
	NoReductions bool `json:"noReductions,omitempty"`
}

// Options validates the request and resolves it into engine options for
// net, whose router locations the geo-distance function reads. The moped
// engine refuses weights.
func (r EngineRequest) Options(net *network.Network) (engine.Options, error) {
	opts := engine.Options{Budget: r.Budget, NoReductions: r.NoReductions}
	if r.Weight != "" {
		spec, err := weight.ParseSpec(r.Weight)
		if err != nil {
			return opts, err
		}
		opts.Spec = spec
	}
	if r.GeoDistance {
		opts.Dist = loc.DistanceFunc(net)
	}
	switch r.Engine {
	case "", "dual":
	case "moped":
		if opts.Spec != nil {
			return opts, errors.New("the moped engine does not support weights")
		}
		opts.Saturate = moped.Poststar
	default:
		return opts, errors.New("unknown engine " + r.Engine)
	}
	return opts, nil
}

// ResultJSON is the machine-readable verification result.
type ResultJSON struct {
	Query    string     `json:"query"`
	Verdict  string     `json:"verdict"`
	Weight   []uint64   `json:"weight,omitempty"`
	Failed   []string   `json:"failedLinks,omitempty"`
	Trace    []StepJSON `json:"trace,omitempty"`
	TimingMS Timings    `json:"timingMs"`
	Sizes    Sizes      `json:"sizes"`
}

// Stable returns a copy of the result with the volatile blocks zeroed:
// wall-clock timings always differ between runs, and rule-count sizes move
// with translation strategy (a cached unsliced build and a fresh sliced
// build of the same network legitimately report different OverRules while
// producing identical verdicts and witnesses). Everything the verification
// semantics determine — query, verdict, weight, failed links, trace — is
// kept, so two Stable results are comparable byte-for-byte across engine
// configurations. Watch-subscription cells and the live differential
// harness compare this form.
func (r ResultJSON) Stable() ResultJSON {
	r.TimingMS = Timings{}
	r.Sizes = Sizes{}
	return r
}

// StepJSON is one trace step.
type StepJSON struct {
	Link   string   `json:"link"`
	Header []string `json:"header"`
}

// Timings carries per-phase durations in milliseconds.
type Timings struct {
	Build       float64 `json:"build"`
	Over        float64 `json:"over"`
	Under       float64 `json:"under,omitempty"`
	Reconstruct float64 `json:"reconstruct"`
}

// Sizes carries system sizes. They are build-time counts: the rules of the
// built system before saturation, so the default on-the-fly product
// reports 0 here. The rules its saturations generate are in
// engine.Stats.{Over,Under}RulesGenerated and the metrics registry; the
// JSON keeps the build-time counts until the benchmark, which compares
// these bytes, switches along with it.
type Sizes struct {
	OverRules    int  `json:"overRules"`
	OverRulesPre int  `json:"overRulesBeforeReduction"`
	UnderRules   int  `json:"underRules,omitempty"`
	UnderUsed    bool `json:"underUsed"`
}

// TimingsOf converts engine stats to the JSON timing block. It is split
// out of ToJSON so error responses can carry the partial timings of a
// failed run.
func TimingsOf(st engine.Stats) Timings {
	return Timings{
		Build:       ms(st.BuildTime),
		Over:        ms(st.OverTime),
		Under:       ms(st.UnderTime),
		Reconstruct: ms(st.ReconstructTime),
	}
}

// SizesOf converts engine stats to the JSON sizes block.
func SizesOf(st engine.Stats) Sizes {
	return Sizes{
		OverRules:    st.OverRules,
		OverRulesPre: st.OverRulesPre,
		UnderRules:   st.UnderRules,
		UnderUsed:    st.UnderUsed,
	}
}

// ToJSON converts an engine result.
func ToJSON(net *network.Network, queryText string, res engine.Result) ResultJSON {
	out := ResultJSON{
		Query:    queryText,
		Verdict:  res.Verdict.String(),
		Weight:   res.Weight,
		TimingMS: TimingsOf(res.Stats),
		Sizes:    SizesOf(res.Stats),
	}
	for _, l := range res.Failed.Sorted() {
		out.Failed = append(out.Failed, net.Topo.LinkName(l))
	}
	for _, s := range res.Trace {
		step := StepJSON{Link: net.Topo.LinkName(s.Link)}
		for _, id := range s.Header {
			step.Header = append(step.Header, net.Labels.Name(id))
		}
		out.Trace = append(out.Trace, step)
	}
	return out
}

func ms(d interface{ Seconds() float64 }) float64 {
	return d.Seconds() * 1000
}

// BatchItemJSON is one query's outcome in a batch run: a ResultJSON on
// success, or the query text plus an error string, machine-readable code
// and whatever partial timings/sizes the failed run produced.
type BatchItemJSON struct {
	ResultJSON
	Error     string  `json:"error,omitempty"`
	Code      string  `json:"code,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// BatchToJSON converts batch results, preserving input order. Failed
// queries keep their partial stats: a budget-exhausted run still reports
// build time, rule counts and the time spent in the phase that blew the
// budget.
func BatchToJSON(net *network.Network, results []batch.Result) []BatchItemJSON {
	out := make([]BatchItemJSON, len(results))
	for i, r := range results {
		item := BatchItemJSON{ElapsedMS: r.Elapsed.Seconds() * 1000}
		if r.Err != nil {
			item.ResultJSON = ResultJSON{
				Query:    r.Query,
				TimingMS: TimingsOf(r.Stats),
				Sizes:    SizesOf(r.Stats),
			}
			item.Error = r.Err.Error()
			item.Code = engine.ErrorCode(r.Err)
		} else {
			item.ResultJSON = ToJSON(net, r.Query, r.Res)
		}
		out[i] = item
	}
	return out
}

// PrintBatch renders batch results either as a JSON array or as
// blank-line-separated human-readable blocks. It returns the number of
// queries that failed (parse errors, budget or deadline exhaustion).
func PrintBatch(w io.Writer, net *network.Network, results []batch.Result, asJSON bool) (failed int, err error) {
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return failed, enc.Encode(BatchToJSON(net, results))
	}
	for i, r := range results {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if r.Err != nil {
			fmt.Fprintf(w, "query:   %s\nerror:   %v\n", r.Query, r.Err)
			continue
		}
		if err := PrintResult(w, net, r.Query, r.Res, false); err != nil {
			return failed, err
		}
	}
	return failed, nil
}

// PrintResult renders a result either as JSON or human-readable text.
func PrintResult(w io.Writer, net *network.Network, queryText string, res engine.Result, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(ToJSON(net, queryText, res))
	}
	fmt.Fprintf(w, "query:   %s\n", queryText)
	fmt.Fprintf(w, "verdict: %s\n", res.Verdict)
	if res.Weight != nil {
		fmt.Fprintf(w, "weight:  %s\n", res.Weight)
	}
	if res.Verdict == engine.Satisfied {
		fmt.Fprintf(w, "witness: %s\n", res.Trace.Format(net))
		if len(res.Failed) > 0 {
			names := make([]string, 0, len(res.Failed))
			for _, l := range res.Failed.Sorted() {
				names = append(names, net.Topo.LinkName(l))
			}
			fmt.Fprintf(w, "failed:  %s\n", strings.Join(names, ", "))
		} else {
			fmt.Fprintf(w, "failed:  (none required)\n")
		}
	}
	fmt.Fprintf(w, "timing:  build=%.1fms over=%.1fms under=%.1fms\n",
		ms(res.Stats.BuildTime), ms(res.Stats.OverTime), ms(res.Stats.UnderTime))
	fmt.Fprintf(w, "size:    rules=%d (pre-reduction %d), generated=%d, under-used=%v\n",
		res.Stats.OverRules, res.Stats.OverRulesPre,
		res.Stats.OverRulesGenerated+res.Stats.UnderRulesGenerated, res.Stats.UnderUsed)
	return nil
}
