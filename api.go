package aalwines

// This file is the public facade of the library: it re-exports the stable
// entry points so that downstream users program against a single import
// path. The implementation lives in internal/ packages (see DESIGN.md for
// the map); everything exposed here is covered by the examples and the
// api_test.go contract tests.

import (
	"context"
	"fmt"
	"io"

	"aalwines/internal/batch"
	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/gml"
	"aalwines/internal/loc"
	"aalwines/internal/network"
	"aalwines/internal/query"
	"aalwines/internal/scenario"
	"aalwines/internal/viz"
	"aalwines/internal/weight"
	"aalwines/internal/xmlio"
)

// Network is an MPLS network: topology, label table and routing table.
type Network = network.Network

// Trace is a witness trace: a sequence of (link, header) steps.
type Trace = network.Trace

// FailedSet is a set of failed links.
type FailedSet = network.FailedSet

// Query is a parsed and compiled reachability query ⟨a⟩ b ⟨c⟩ k.
type Query = query.Query

// Options configure a verification run; the zero value runs the unweighted
// dual engine without limits.
type Options = engine.Options

// Result is the outcome of a verification run.
type Result = engine.Result

// Verdict is the three-valued answer of the analysis.
type Verdict = engine.Verdict

// Verdict values.
const (
	// Unsatisfied: no witness trace exists (conclusive).
	Unsatisfied = engine.Unsatisfied
	// Satisfied: a validated witness trace was produced.
	Satisfied = engine.Satisfied
	// Inconclusive: the polynomial-time approximations could not decide.
	Inconclusive = engine.Inconclusive
)

// WeightSpec is a lexicographic vector of linear expressions over the
// atomic quantities (Links, Hops, Distance, Failures, Tunnels); see
// ParseWeight.
type WeightSpec = weight.Spec

// ParseQuery parses a query such as
//
//	<smpls ip> [.#R6] .* [.#R4] <smpls ip> 1
//
// against a network, resolving router names, interfaces and labels.
func ParseQuery(text string, net *Network) (*Query, error) {
	return query.Parse(text, net)
}

// ParseWeight parses a minimisation vector such as
// "Hops, Failures + 3*Tunnels" for Options.Spec.
func ParseWeight(text string) (WeightSpec, error) {
	return weight.ParseSpec(text)
}

// Verify decides the query satisfiability problem (and, with Options.Spec,
// the minimum witness problem) for a query on a network. Cancelling ctx
// (or letting its deadline pass) aborts the run between phases and inside
// saturation, returning ctx's error; pass context.Background() when no
// cancellation is needed.
func Verify(ctx context.Context, net *Network, q *Query, opts Options) (Result, error) {
	return engine.VerifyCtx(ctx, net, q, opts)
}

// VerifyText parses and verifies a textual query in one call, with the
// same cancellation contract as Verify.
func VerifyText(ctx context.Context, net *Network, queryText string, opts Options) (Result, error) {
	return engine.VerifyTextCtx(ctx, net, queryText, opts)
}

// BatchOptions configure VerifyBatch: worker count (default GOMAXPROCS),
// per-query deadline and the per-query engine options.
type BatchOptions = batch.Options

// BatchResult is one query's outcome in a batch, in input order.
type BatchResult = batch.Result

// BatchRunner verifies batches against one network while keeping parsed
// queries between calls; every run builds its own pushdown system. It is
// safe for concurrent use. Build one with NewBatchRunner when issuing
// repeated batches of the same queries; one-shot callers can use
// VerifyBatch directly.
type BatchRunner = batch.Runner

// NewBatchRunner returns a reusable batch runner bound to the network. It
// keeps each distinct query text it has parsed for its whole life.
func NewBatchRunner(net *Network) *BatchRunner {
	return batch.NewRunner(net)
}

// VerifyBatch verifies many queries against one network concurrently on a
// bounded worker pool. Results are deterministic: same order as the
// input and identical verdicts/witnesses to serial Verify runs regardless
// of the worker count. Cancelling ctx stops the batch; unfinished queries
// report the context's error in their Result.
func VerifyBatch(ctx context.Context, net *Network, queries []string, opts BatchOptions) []BatchResult {
	return batch.Verify(ctx, net, queries, opts)
}

// ScenarioSession owns a base network plus a stack of composable what-if
// deltas (failed links, drained routers, edited routing entries). Applying
// or undoing a delta rematerialises a cheap overlay network; verification
// against the overlay reuses translated rule blocks for every router the
// stack does not touch. Close a session when done to release its caches.
type ScenarioSession = scenario.Session

// ScenarioDelta is one reversible what-if mutation; build one with
// ParseScenarioDelta or scenario file syntax (see ParseScenario). Entry
// and priority deltas address 1-based priority slots bounded by
// ScenarioMaxPriority; out-of-range slots fail validation at Apply time.
type ScenarioDelta = scenario.Delta

// ScenarioMaxPriority caps the priority slot a delta may address, keeping
// a single routing edit from materialising unbounded priority groups.
const ScenarioMaxPriority = scenario.MaxPriority

// ScenarioApplyError is the error of a failed atomic delta batch
// (ScenarioSession.ApplyAll / ApplyAllText): it names the offending
// delta's position and command, and nothing was applied. Unwrap yields
// the underlying parse or validation error.
type ScenarioApplyError = scenario.ApplyError

// NewScenarioSession starts a what-if session on top of base. The base
// network is never mutated; each applied delta produces a fresh overlay.
func NewScenarioSession(base *Network) *ScenarioSession {
	return scenario.NewSession(base)
}

// ParseScenarioDelta parses one delta command, e.g. "fail v2.oe4#v3.ie4"
// or "drain v2"; names are resolved against the session's base network at
// Apply time.
func ParseScenarioDelta(line string) (ScenarioDelta, error) {
	return scenario.ParseDelta(line)
}

// ParseScenario parses a scenario file: one delta command per line, blank
// lines and #-comments ignored.
func ParseScenario(text string) ([]ScenarioDelta, error) {
	return scenario.ParseScenario(text)
}

// ReadXML loads a network from the vendor-agnostic XML format of
// Appendix A (topo.xml + route.xml).
func ReadXML(topo, route io.Reader) (*Network, error) {
	return xmlio.ReadNetwork(topo, route)
}

// WriteXML serialises a network into the vendor-agnostic XML format. The
// two documents are written in order; a failure names which one broke so
// callers writing to distinct files know which output is incomplete.
func WriteXML(topo, route io.Writer, net *Network) error {
	if err := xmlio.WriteTopology(topo, net); err != nil {
		return fmt.Errorf("writing topology document: %w", err)
	}
	if err := xmlio.WriteRouting(route, net); err != nil {
		return fmt.Errorf("writing routing document: %w", err)
	}
	return nil
}

// ReadGML loads a topology from an Internet Topology Zoo GML file; use
// SynthesizeDataplane to put MPLS forwarding on it.
func ReadGML(r io.Reader) (*Network, error) {
	return gml.ReadTopology(r)
}

// ReadLocations applies Appendix A.2 location JSON to a network's routers.
func ReadLocations(r io.Reader, net *Network) error {
	return loc.Read(r, net)
}

// DistanceFunc assigns a distance to every link; used by the Distance
// atomic quantity via Options.Dist.
type DistanceFunc = weight.DistanceFunc

// GeoDistance returns a distance function for Options.Dist based on
// great-circle distances between router coordinates.
func GeoDistance(net *Network) DistanceFunc {
	return loc.DistanceFunc(net)
}

// SynthesizeDataplane builds the evaluation dataplane (label-switched
// paths between edgeCount deterministically chosen edge routers, with
// fast-reroute protection) on an imported topology.
func SynthesizeDataplane(net *Network, edgeCount int, seed int64) {
	edge := gen.PickEdgeRouters(net, edgeCount, seed)
	gen.Build(net, edge, gen.SynthOpts{Protection: true})
}

// RunningExample returns the paper's Figure 1 network.
func RunningExample() *Network {
	return gen.RunningExample().Network
}

// NewOperatorNetwork generates the NORDUnet-style 31-router operator
// network with the given number of service chains per edge pair.
func NewOperatorNetwork(services int, seed int64) *Network {
	return gen.Nordunet(gen.NordOpts{Services: services, Seed: seed}).Net
}

// NewWAN generates a Topology-Zoo-style synthetic wide-area network with
// the given router count.
func NewWAN(routers int, seed int64) *Network {
	return gen.Zoo(gen.ZooOpts{Routers: routers, Seed: seed, Protection: true}).Net
}

// WriteDOT renders the network as Graphviz DOT, highlighting the witness
// trace and failed links of a result (pass a zero Result for a plain map).
func WriteDOT(w io.Writer, net *Network, res Result) error {
	return viz.WriteDOT(w, net, viz.Options{
		Trace:     res.Trace,
		Failed:    res.Failed,
		HideStubs: true,
	})
}
