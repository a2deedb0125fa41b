// Command aalwines is the command-line verifier: it loads an MPLS network
// (from the vendor-agnostic XML format, an IS-IS snapshot or one of the
// built-in generators), parses a reachability query and reports whether the
// query is satisfied, together with a (minimum) witness trace.
//
// With -queries FILE (one query per line, '#' starts a comment) it runs a
// whole batch on a bounded worker pool, sharing the translated pushdown
// systems across queries; -j sets the worker count.
//
// With -scenario FILE the network is mutated by a stack of what-if deltas
// before verification: one command per line ('#' comments), e.g.
//
//	fail v2.oe4#v3.ie4
//	drain v2
//	add-entry v0.oe1#v2.ie1 s40 1 v2.oe5#v4.ie5 swap(s43);push(30)
//
// Queries (and -write-topology/-write-routing/-dot exports) then run
// against the mutated overlay; the base network is never modified.
//
// With -sweep the queries become invariants and the tool explores the
// network's failure space instead of verifying once: every single link
// failure (-sweep-depth 1) or every single and unordered double failure
// (-sweep-depth 2) is compiled into a what-if scenario and the whole
// (scenario × invariant) grid is verified on the worker pool, reusing
// translated rule blocks across neighbouring scenarios. The report lists,
// per invariant, the verdict distribution and the minimal breaking
// failure sets.
//
// With -live FILE the queries become invariants and the tool replays a
// routing-update feed (one event per line: JSON objects like
// {"type":"link-down","link":"..."} or bare delta commands, "flush"
// forcing a batch boundary, "-" reading stdin) against a long-lived
// session, re-verifying every invariant at each flush and reporting every
// verdict transition plus the final state. It is the offline twin of
// aalwinesd -feed: the same ingestion pipeline, run to EOF with
// deterministic flush points (flush events and EOF only; no debounce
// timer).
//
// Examples:
//
//	aalwines -net running-example -query '<ip> [.#v0] .* [v3#.] <ip> 0'
//	aalwines -net nordunet -services 4 \
//	    -query '<smpls ip> [.#sto1] .* [.#lon1] <smpls ip> 1' \
//	    -weight 'Hops, Failures + 3*Tunnels' -json
//	aalwines -topo topo.xml -routing route.xml -query '...' -engine moped
//	aalwines -net zoo -routers 84 -queries what-if.q -j 4 -json
//	aalwines -net running-example -scenario outage.wif -queries what-if.q -json
//	aalwines -net running-example -sweep -sweep-depth 2 -queries invariants.q
//	aalwines -net running-example -live updates.feed -queries invariants.q -json
//	aalwines -net zoo -routers 84 -write-topology topo.xml -write-routing route.xml
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"aalwines/internal/batch"
	"aalwines/internal/cli"
	"aalwines/internal/engine"
	"aalwines/internal/live"
	"aalwines/internal/loc"
	"aalwines/internal/moped"
	"aalwines/internal/network"
	"aalwines/internal/obs"
	"aalwines/internal/scenario"
	"aalwines/internal/sweep"
	"aalwines/internal/viz"
	"aalwines/internal/weight"
	"aalwines/internal/xmlio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aalwines:", err)
		os.Exit(1)
	}
}

func run() error {
	var nf cli.NetFlags
	flag.StringVar(&nf.Topo, "topo", "", "topology XML file")
	flag.StringVar(&nf.Route, "routing", "", "routing XML file")
	flag.StringVar(&nf.ISIS, "isis", "", "IS-IS snapshot mapping file")
	flag.StringVar(&nf.GML, "gml", "", "Topology Zoo GML file (dataplane synthesised on it)")
	flag.StringVar(&nf.Builtin, "net", "", "builtin network: running-example (default), nordunet, zoo")
	flag.StringVar(&nf.Locations, "locations", "", "router locations JSON (Appendix A.2)")
	flag.IntVar(&nf.Routers, "routers", 0, "router count for -net zoo")
	flag.Int64Var(&nf.Seed, "seed", 1, "generator seed")
	flag.IntVar(&nf.Services, "services", 0, "service chains per pair for -net nordunet")
	flag.IntVar(&nf.Edge, "edge", 0, "edge router count for generated networks")

	queryText := flag.String("query", "", "reachability query <a> b <c> k")
	queriesFile := flag.String("queries", "", "file with one query per line ('#' comments); runs them as a batch")
	scenarioFile := flag.String("scenario", "", "what-if scenario file: one delta command per line, applied before verification")
	workers := flag.Int("j", 0, "worker pool size for -queries batches, -sweep and -live (0 = GOMAXPROCS)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query wall-clock deadline for -queries batches (0 = none)")
	liveFile := flag.String("live", "", "replay a routing-update feed (\"-\" = stdin) against the invariants and report verdict transitions")
	sweepMode := flag.Bool("sweep", false, "resilience sweep: verify every query under every single/double link failure")
	sweepDepth := flag.Int("sweep-depth", 1, "failure-space depth for -sweep: 1 = single links, 2 = singles + pairs")
	sweepCells := flag.Bool("sweep-cells", false, "embed the full per-cell grid in -sweep -json output")
	engineName := flag.String("engine", "dual", "saturation backend: dual or moped")
	weightSpec := flag.String("weight", "", "minimisation vector, e.g. 'Hops, Failures + 3*Tunnels'")
	useDistance := flag.Bool("geo-distance", false, "use great-circle distances for the Distance quantity")
	noReductions := flag.Bool("no-reductions", false, "disable the pre-saturation reduction pass")
	noSlice := flag.Bool("no-slice", false, "build the whole reduced product up front instead of generating rules as saturation reaches them")
	budget := flag.Int64("budget", 0, "work budget per saturation (0 = unlimited)")
	asJSON := flag.Bool("json", false, "JSON output")
	statsDump := flag.Bool("stats", false, "dump the metrics registry as JSON to stderr on exit (engine_rules_generated_total counts on-the-fly rules per direction)")
	writeTopo := flag.String("write-topology", "", "write the topology XML and exit")
	writeRoute := flag.String("write-routing", "", "write the routing XML and exit")
	writeLoc := flag.String("write-locations", "", "write the locations JSON and exit")
	dotOut := flag.String("dot", "", "write a Graphviz rendering of the network (and witness, if any)")
	flag.Parse()

	if *statsDump {
		// Runs on every exit path, after all verification work: the dump
		// carries saturation counters, per-phase timings and cache metrics
		// for whatever this invocation did — including failed runs.
		defer func() {
			if err := obs.Default.WriteJSON(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "aalwines: -stats:", err)
			}
		}()
	}

	net, err := cli.Load(nf)
	if err != nil {
		return err
	}

	// A scenario mutates the network up front: exports and queries below
	// all see the overlay, never the base.
	var sess *scenario.Session
	if *scenarioFile != "" {
		text, err := os.ReadFile(*scenarioFile)
		if err != nil {
			return err
		}
		deltas, err := scenario.ParseScenario(string(text))
		if err != nil {
			return fmt.Errorf("%s: %w", *scenarioFile, err)
		}
		sess = scenario.NewSession(net)
		defer sess.Close()
		// ApplyAll validates the whole file before applying, then rebuilds
		// the overlay once; its error names the failing command.
		if _, err := sess.ApplyAll(deltas); err != nil {
			return fmt.Errorf("%s: %w", *scenarioFile, err)
		}
		net = sess.Overlay()
	}

	wrote := false
	if *writeTopo != "" {
		if err := writeFile(*writeTopo, func(f *os.File) error { return xmlio.WriteTopology(f, net) }); err != nil {
			return err
		}
		wrote = true
	}
	if *writeRoute != "" {
		if err := writeFile(*writeRoute, func(f *os.File) error { return xmlio.WriteRouting(f, net) }); err != nil {
			return err
		}
		wrote = true
	}
	if *writeLoc != "" {
		if err := writeFile(*writeLoc, func(f *os.File) error { return loc.Write(f, net) }); err != nil {
			return err
		}
		wrote = true
	}
	if *queryText == "" && *queriesFile == "" {
		if wrote {
			return nil
		}
		return fmt.Errorf("no -query or -queries given (and nothing to write)")
	}

	opts := engine.Options{NoReductions: *noReductions, Budget: *budget, NoSlice: *noSlice}
	if *weightSpec != "" {
		spec, err := weight.ParseSpec(*weightSpec)
		if err != nil {
			return err
		}
		opts.Spec = spec
	}
	if *useDistance {
		opts.Dist = loc.DistanceFunc(net)
	}
	switch *engineName {
	case "dual":
	case "moped":
		if opts.Spec != nil {
			return fmt.Errorf("the moped backend does not support -weight")
		}
		opts.Saturate = moped.Poststar
	default:
		return fmt.Errorf("unknown engine %q", *engineName)
	}

	if *liveFile != "" {
		if *sweepMode || *dotOut != "" || sess != nil {
			return fmt.Errorf("-live cannot be combined with -sweep, -scenario or -dot")
		}
		var texts []string
		if *queriesFile != "" {
			texts, err = readQueries(*queriesFile)
			if err != nil {
				return err
			}
		}
		if *queryText != "" {
			texts = append(texts, *queryText)
		}
		if len(texts) == 0 {
			return fmt.Errorf("-live needs invariants: give -query or -queries")
		}
		return runLive(*liveFile, net, texts, opts, *workers, *asJSON)
	}

	if *sweepMode {
		if *dotOut != "" {
			return fmt.Errorf("-dot is not supported with -sweep")
		}
		var texts []string
		if *queriesFile != "" {
			texts, err = readQueries(*queriesFile)
			if err != nil {
				return err
			}
		}
		if *queryText != "" {
			texts = append(texts, *queryText)
		}
		res, err := sweep.Run(context.Background(), net, sweep.Config{
			Depth:        *sweepDepth,
			Invariants:   texts,
			Workers:      *workers,
			Engine:       opts,
			Timeout:      *queryTimeout,
			IncludeCells: *sweepCells,
		})
		if err != nil {
			return err
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(res.Report)
		}
		return res.Report.WriteText(os.Stdout)
	}

	if *queriesFile != "" {
		if *dotOut != "" {
			return fmt.Errorf("-dot is not supported with -queries")
		}
		texts, err := readQueries(*queriesFile)
		if err != nil {
			return err
		}
		if *queryText != "" {
			texts = append(texts, *queryText)
		}
		if len(texts) == 0 {
			return fmt.Errorf("%s: no queries", *queriesFile)
		}
		bopts := batch.Options{Workers: *workers, Timeout: *queryTimeout, Engine: opts}
		var results []batch.Result
		if sess != nil {
			// Route through the session so translations reuse the
			// incremental block store.
			results = sess.VerifyBatch(context.Background(), texts, bopts)
		} else {
			results = batch.Verify(context.Background(), net, texts, bopts)
		}
		failed, err := cli.PrintBatch(os.Stdout, net, results, *asJSON)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d queries failed", failed, len(texts))
		}
		return nil
	}

	var res engine.Result
	if sess != nil {
		res, err = sess.Verify(context.Background(), *queryText, opts)
	} else {
		res, err = engine.VerifyText(net, *queryText, opts)
	}
	if err != nil {
		return err
	}
	if *dotOut != "" {
		err := writeFile(*dotOut, func(f *os.File) error {
			return viz.WriteDOT(f, net, viz.Options{Trace: res.Trace, Failed: res.Failed, HideStubs: true})
		})
		if err != nil {
			return err
		}
	}
	return cli.PrintResult(os.Stdout, net, *queryText, res, *asJSON)
}

// liveReport is the -live -json output: the replay totals, every flush
// boundary, the invariants' initial states, every verdict transition in
// order, and the final cells.
type liveReport struct {
	Feed        string            `json:"feed"`
	Network     string            `json:"network"`
	Stats       live.ReplayStats  `json:"stats"`
	Flushes     []live.FlushInfo  `json:"flushes"`
	Initial     []live.Cell       `json:"initial"`
	Transitions []live.WatchEvent `json:"transitions,omitempty"`
	Final       []live.Cell       `json:"final"`
}

// runLive replays a routing-update feed against a fresh session, watching
// every invariant, and reports the transitions. Flushes happen only at
// explicit flush events, the burst cap and EOF — no debounce timer — so a
// given feed always produces the same report.
func runLive(feedPath string, net *network.Network, texts []string, eopts engine.Options, workers int, asJSON bool) error {
	var r io.Reader
	if feedPath == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(feedPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	sess := scenario.NewSession(net)
	defer sess.Close()
	hub := live.NewHub(sess, live.HubOptions{Engine: eopts, Workers: workers})
	defer hub.Close("replay-done")
	ctx := context.Background()
	w, err := hub.AddWatch(ctx, texts, 4096)
	if err != nil {
		return err
	}

	var flushes []live.FlushInfo
	ing := live.NewIngester(sess, live.Options{
		Hub: hub,
		OnFlush: func(info live.FlushInfo) {
			flushes = append(flushes, info)
			if !asJSON {
				fmt.Printf("flush #%d: %d events -> stack %d (fp %s), %d changed, reverify %.1fms\n",
					info.Seq, info.Events, info.StackLen, info.Fingerprint, info.Changed, info.ReverifyMS)
			}
		},
	})
	stats, err := ing.Run(ctx, r)
	if err != nil {
		return err
	}

	// Everything is queued by now: one bounded drain collects the initial
	// states (seq 0) and every transition, in order.
	var initial []live.Cell
	var transitions []live.WatchEvent
	evs, _ := w.Next(ctx, time.Millisecond)
	for _, ev := range evs {
		switch {
		case ev.Type == "gap":
			return fmt.Errorf("watch queue overflowed: %d events lost (too many transitions for the report buffer)", ev.Dropped)
		case ev.Type != "verdict":
		case ev.Seq == 0:
			initial = append(initial, *ev.Cell)
		default:
			transitions = append(transitions, ev)
		}
	}

	rep := liveReport{
		Feed:        feedPath,
		Network:     net.Name,
		Stats:       stats,
		Flushes:     flushes,
		Initial:     initial,
		Transitions: transitions,
		Final:       hub.Cells(),
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("replayed %s: %d events (%d errors), %d flushes, %d verdict changes\n",
			feedPath, stats.Events, stats.Errors, stats.Flushes, stats.Changed)
		fmt.Println("initial:")
		for _, c := range initial {
			printCell(c)
		}
		for _, ev := range transitions {
			fmt.Printf("flush #%d (fp %s) changed:\n", ev.Seq, ev.Fingerprint)
			printCell(*ev.Cell)
		}
		fmt.Println("final:")
		for _, c := range rep.Final {
			printCell(c)
		}
	}
	if stats.Errors > 0 {
		return fmt.Errorf("%d feed lines failed to parse or validate", stats.Errors)
	}
	return nil
}

func printCell(c live.Cell) {
	if c.Error != "" {
		fmt.Printf("  error(%s)   %s: %s\n", c.Code, c.Query, c.Error)
		return
	}
	fmt.Printf("  %-11s %s\n", c.Verdict, c.Query)
}

// readQueries reads one query per line; blank lines and lines starting
// with '#' are skipped.
func readQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var texts []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		texts = append(texts, line)
	}
	return texts, sc.Err()
}

func writeFile(path string, f func(*os.File) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(file); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
