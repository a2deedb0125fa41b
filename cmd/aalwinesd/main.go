// Command aalwinesd serves the verification engine over HTTP — the role of
// the web backend behind the AalWiNes GUI. It loads one or more networks at
// startup and then answers topology and verification requests concurrently.
//
//	aalwinesd -listen :8080 -net running-example
//	aalwinesd -listen :8080 -net nordunet -services 4 \
//	          -topo extra-topo.xml -routing extra-route.xml
//
// Endpoints (all under the versioned prefix): GET /api/v1/networks,
// GET /api/v1/networks/{name}/topology, POST /api/v1/verify,
// POST /api/v1/verify-batch, POST /api/v1/networks/{name}/sweep
// (resilience sweep over the single/double link-failure space; "stream"
// switches the response to newline-delimited per-cell JSON events),
// the scenario-session routes
// (POST/GET /api/v1/sessions, GET/DELETE /api/v1/sessions/{id},
// POST /api/v1/sessions/{id}/deltas, DELETE /api/v1/sessions/{id}/deltas/{seq},
// POST /api/v1/sessions/{id}/verify{,-batch}), the watch routes
// (POST/GET /api/v1/sessions/{id}/watch,
// DELETE /api/v1/sessions/{id}/watch/{wid},
// GET /api/v1/sessions/{id}/watch/{wid}/events — SSE, or NDJSON with
// ?format=ndjson), GET /metrics (Prometheus text) and GET /healthz. The
// pre-versioning /api/* paths are unknown routes (404 not-found).
// Errors on every route share one JSON envelope ({code, message,
// details, stats?}) whose code decides the status; see internal/httpapi
// for the schema and the table of codes, and cmd/apicontract for the
// golden-file contract check.
//
// With -feed the daemon opens a long-lived session on the builtin network
// and streams routing updates into it from a file, FIFO, or stdin ("-"):
// one event per line, either a JSON object ({"type":"link-down",...}) or
// a bare delta command. Bursts are coalesced over -feed-window; each
// flush atomically replaces the session's delta stack and re-verifies
// every invariant registered through the watch routes, pushing only
// changed verdicts to subscribers. The stack belongs to the feed: a delta
// posted to the feed session over HTTP lasts until the next flush. See
// the README's "Live mode" walkthrough.
//
// With -debug-addr a second listener serves the operator-facing debug
// surface — /metrics, /debug/vars (expvar, including the metrics registry
// as "aalwines_metrics") and /debug/pprof/* — kept off the public address
// so profiling endpoints are never exposed to API clients.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"aalwines/internal/cli"
	"aalwines/internal/httpapi"
	"aalwines/internal/live"
	"aalwines/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aalwinesd:", err)
		os.Exit(1)
	}
}

func run() error {
	var nf cli.NetFlags
	flag.StringVar(&nf.Topo, "topo", "", "additional network: topology XML")
	flag.StringVar(&nf.Route, "routing", "", "additional network: routing XML")
	flag.StringVar(&nf.Builtin, "net", "running-example", "builtin network to serve: running-example, nordunet, zoo, fattree, rings, backbone")
	flag.StringVar(&nf.Locations, "locations", "", "router locations JSON")
	flag.IntVar(&nf.Routers, "routers", 0, "router count (zoo) or size target (fattree/rings/backbone)")
	flag.Int64Var(&nf.Seed, "seed", 1, "generator seed")
	flag.IntVar(&nf.Services, "services", 0, "service chains per edge pair")
	flag.IntVar(&nf.Edge, "edge", 0, "edge router count")
	listen := flag.String("listen", ":8080", "listen address")
	budget := flag.Int64("max-budget", 200_000_000, "per-request saturation budget (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "worker cap for the verify-batch and sweep routes and watch re-verification (0 = GOMAXPROCS)")
	debugAddr := flag.String("debug-addr", "", "debug listener for /metrics, /debug/vars and /debug/pprof/* (empty = disabled)")
	feed := flag.String("feed", "", "routing-update feed: file or FIFO path, or \"-\" for stdin (empty = disabled)")
	feedWindow := flag.Duration("feed-window", 200*time.Millisecond, "feed debounce window: quiet time before a burst is flushed")
	feedCap := flag.Int("feed-cap", 256, "feed burst cap: pending events that force a flush regardless of the window")
	flag.Parse()

	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	srv := httpapi.NewServer()
	srv.MaxBudget = *budget
	srv.Parallel = *parallel

	// The builtin network always loads; XML files add a second network.
	builtinOnly := nf
	builtinOnly.Topo, builtinOnly.Route = "", ""
	net, err := cli.Load(builtinOnly)
	if err != nil {
		return err
	}
	srv.Register(net)
	log.Printf("registered network %q (%d routers, %d rules)",
		net.Name, net.Topo.NumRouters(), net.Routing.NumRules())
	if nf.Topo != "" {
		xmlNet, err := cli.Load(cli.NetFlags{Topo: nf.Topo, Route: nf.Route, Locations: nf.Locations})
		if err != nil {
			return err
		}
		srv.Register(xmlNet)
		log.Printf("registered network %q (%d routers, %d rules)",
			xmlNet.Name, xmlNet.Topo.NumRouters(), xmlNet.Routing.NumRules())
	}

	hs := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      10 * time.Minute, // verification can be slow
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *feed != "" {
		ing, sid, err := srv.AttachLiveFeed(net.Name, live.Options{
			Window:     *feedWindow,
			MaxPending: *feedCap,
			OnFlush: func(info live.FlushInfo) {
				log.Printf("feed flush #%d: %d events -> stack %d (fp %s), %d verdicts changed, reverify %.1fms",
					info.Seq, info.Events, info.StackLen, info.Fingerprint, info.Changed, info.ReverifyMS)
			},
		})
		if err != nil {
			return err
		}
		r, err := openFeed(*feed)
		if err != nil {
			return err
		}
		log.Printf("feed %s attached to session %s on %q (window %s, cap %d)",
			*feed, sid, net.Name, *feedWindow, *feedCap)
		go func() {
			defer r.Close()
			stats, err := ing.Run(ctx, r)
			if err != nil && ctx.Err() == nil {
				log.Printf("feed: %v", err)
			}
			log.Printf("feed ended: %d events (%d errors), %d flushes, %d verdict changes",
				stats.Events, stats.Errors, stats.Flushes, stats.Changed)
		}()
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", *listen)
		errCh <- hs.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		log.Print("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(shutdownCtx)
	}
}

// openFeed resolves the -feed flag: "-" is stdin, anything else is opened
// as a file (a FIFO blocks in the feed goroutine until a writer appears,
// which is the intended hand-off for router-daemon integration).
func openFeed(path string) (*os.File, error) {
	if path == "-" {
		return os.Stdin, nil
	}
	return os.Open(path)
}

// serveDebug runs the operator-facing debug listener. It dies with the
// process; a failure to bind is logged but does not take the API down.
func serveDebug(addr string) {
	obs.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(obs.Default))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("debug listening on %s", addr)
	if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("debug listener: %v", err)
	}
}
