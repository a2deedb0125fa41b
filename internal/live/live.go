// Package live implements streaming what-if analysis: continuous
// verification over a feed of routing-table update events, closing the
// loop the paper's batch workflow leaves open (load a snapshot, ask
// queries) into "keep asking as the network changes".
//
// The subsystem has two halves:
//
//   - An Ingester consumes a line-delimited JSON event stream (link/router
//     up-down events or raw scenario delta commands), coalesces bursts in
//     a debounce window, and applies each coalesced batch atomically to a
//     long-lived scenario.Session via SetStack. Coalescing is
//     desired-state: a link-up cancels a pending link-down instead of
//     stacking on top of it, so the session's delta stack stays minimal
//     and a window whose events cancel out leaves the fingerprint
//     unchanged and is skipped. The incremental translation cache keys
//     rule blocks by routing content, so they stay hot across flushes.
//
//   - A Hub owns watch subscriptions on the session: each watch registers
//     a set of invariants (queries), and every flush re-verifies the
//     registered set on the batch pool and pushes only the cells whose
//     verdict or witness changed. Watches have bounded queues with
//     drop-oldest backpressure (a "gap" event tells the client how much it
//     missed) and are closed honestly when the session is torn down.
//
// The differential harness in this package's tests proves every
// post-flush verdict byte-identical to a from-scratch verification of the
// materialized network at that version; see DESIGN.md §12 for the flush
// state machine and the backpressure contract.
package live

import (
	"encoding/json"
	"fmt"
	"strings"

	"aalwines/internal/obs"
	"aalwines/internal/scenario"
)

var (
	mEvents      = obs.GetCounter("live_events_total")
	mEventErrors = obs.GetCounter("live_event_errors_total")
	mFlushes     = obs.GetCounter("live_flushes_total")
	// live_coalesced_per_flush counts raw events per flush — the debouncer's
	// whole point is pushing this above 1.
	mCoalesced = obs.GetHistogram("live_coalesced_per_flush",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512})
	// live_reverify_ms is in milliseconds, unlike the registry's
	// seconds-based defaults: re-verification latency on a warm cache sits
	// well under a second and ms buckets keep the histogram readable (the
	// DESIGN.md §7 naming convention carries the unit in the name).
	// Hub.Refresh observes it on every re-verification: feed flushes and
	// the HTTP delta and undo routes alike.
	mReverifyMS = obs.GetHistogram("live_reverify_ms",
		[]float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500})
	mWatchesLive  = obs.GetGauge("live_watches_live")
	mWatchEvents  = obs.GetCounter("live_watch_events_total")
	mWatchDropped = obs.GetCounter("live_watch_dropped_total")
)

// Event is one line of the feed: a routing-table update in the
// line-delimited JSON format.
//
//	{"type":"link-down","link":"A.if1#B.if2"}
//	{"type":"router-up","router":"v3"}
//	{"type":"delta","cmds":["remove-entry ...","add-entry ..."],"router":"v2"}
//	{"type":"flush"}
//
// Router is informational on delta events (the router the delta set was
// attributed to); the commands themselves carry the authoritative slot
// addresses.
type Event struct {
	// Type is "link-down", "link-up", "router-down", "router-up", "delta"
	// or "flush" (force a flush point in the stream).
	Type string `json:"type"`
	// Link names the affected link for link-down/link-up, in the query
	// language's "A.if1#B.if2" form (or "A#B" when unambiguous).
	Link string `json:"link,omitempty"`
	// Router names the affected router for router-down/router-up, or
	// attributes a delta set.
	Router string `json:"router,omitempty"`
	// Cmd/Cmds carry scenario delta commands for type "delta".
	Cmd  string   `json:"cmd,omitempty"`
	Cmds []string `json:"cmds,omitempty"`
}

// ParseEvent parses one feed line. JSON lines (starting with '{') use the
// Event schema; anything else is treated as a raw scenario command — so a
// plain .wif scenario file replays as a feed — with the bare word "flush"
// forcing a flush point.
func ParseEvent(line string) (Event, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Event{}, errSkip
	}
	if strings.HasPrefix(line, "{") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return Event{}, fmt.Errorf("live: bad event JSON: %w", err)
		}
		switch ev.Type {
		case "link-down", "link-up":
			if ev.Link == "" {
				return Event{}, fmt.Errorf("live: %s event without link", ev.Type)
			}
		case "router-down", "router-up":
			if ev.Router == "" {
				return Event{}, fmt.Errorf("live: %s event without router", ev.Type)
			}
		case "delta":
			if ev.Cmd == "" && len(ev.Cmds) == 0 {
				return Event{}, fmt.Errorf("live: delta event without commands")
			}
		case "flush":
		default:
			return Event{}, fmt.Errorf("live: unknown event type %q", ev.Type)
		}
		return ev, nil
	}
	if line == "flush" {
		return Event{Type: "flush"}, nil
	}
	return Event{Type: "delta", Cmd: line}, nil
}

// errSkip marks blank and comment lines; not an error the caller reports.
var errSkip = fmt.Errorf("live: skip line")

// Deltas maps the event to the scenario deltas it implies (empty for
// "flush"). Commands are parsed but not yet validated against a network.
func (ev Event) Deltas() ([]scenario.Delta, error) {
	switch ev.Type {
	case "link-down":
		return []scenario.Delta{{Kind: scenario.FailLink, Link: ev.Link}}, nil
	case "link-up":
		return []scenario.Delta{{Kind: scenario.RestoreLink, Link: ev.Link}}, nil
	case "router-down":
		return []scenario.Delta{{Kind: scenario.DrainRouter, Router: ev.Router}}, nil
	case "router-up":
		return []scenario.Delta{{Kind: scenario.RestoreRouter, Router: ev.Router}}, nil
	case "delta":
		cmds := ev.Cmds
		if ev.Cmd != "" {
			cmds = append([]string{ev.Cmd}, cmds...)
		}
		out := make([]scenario.Delta, 0, len(cmds))
		for _, cmd := range cmds {
			d, err := scenario.ParseDelta(cmd)
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	case "flush":
		return nil, nil
	default:
		return nil, fmt.Errorf("live: unknown event type %q", ev.Type)
	}
}
