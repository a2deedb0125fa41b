package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"aalwines/internal/live"
	"aalwines/internal/scenario"
)

// WatchCreateRequest is the body of POST /api/v1/sessions/{id}/watch.
type WatchCreateRequest struct {
	// Invariants are the queries re-verified on every session change.
	Invariants []string `json:"invariants"`
	// Buffer caps the watch's event queue (0 = server default). A slow
	// event-stream consumer loses the oldest events past this cap and is
	// told so with a "gap" event.
	Buffer int `json:"buffer,omitempty"`
}

func (s *Server) handleWatchCreate(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	var req WatchCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Invariants) == 0 {
		writeError(w, "bad-request", "no invariants", nil)
		return
	}
	wch, err := e.hub.AddWatch(r.Context(), req.Invariants, req.Buffer)
	switch {
	case errors.Is(err, live.ErrClosed):
		writeError(w, "session-not-found", "unknown session "+e.id, map[string]string{"session": e.id})
		return
	case err != nil:
		writeRefused(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, wch.Info())
}

func (s *Server) handleWatchList(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	writeJSON(w, http.StatusOK, e.hub.Watches())
}

func (s *Server) handleWatchClose(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	wid := r.PathValue("wid")
	if !e.hub.CloseWatch(wid, "client-request") {
		writeError(w, "watch-not-found", "unknown watch "+wid, map[string]string{"watch": wid})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleWatchEvents streams a watch's events. The default framing is
// Server-Sent Events (text/event-stream, one "event:"/"data:" block per
// event); ?format=ndjson switches to one JSON object per line. Quiet
// periods are bridged with heartbeat events. ?limit=N ends the stream
// after N events — the deterministic-transcript hook the API contract
// check uses. Exactly one stream may be attached to a watch at a time;
// a second concurrent attach gets 409.
func (s *Server) handleWatchEvents(w http.ResponseWriter, r *http.Request) {
	e := s.lookupSession(w, r.PathValue("id"))
	if e == nil {
		return
	}
	wid := r.PathValue("wid")
	wch := e.hub.Watch(wid)
	if wch == nil {
		writeError(w, "watch-not-found", "unknown watch "+wid, map[string]string{"watch": wid})
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeError(w, "bad-request", "bad limit "+l, nil)
			return
		}
		limit = n
	}
	ndjson := r.URL.Query().Get("format") == "ndjson"
	if !wch.TryAttach() {
		writeError(w, "watch-busy", "another stream is attached to this watch", map[string]string{"watch": wid})
		return
	}
	defer wch.Detach()

	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	heartbeat := s.Heartbeat
	if heartbeat == 0 {
		heartbeat = 15 * time.Second
	}
	enc := json.NewEncoder(w)
	sent := 0
	emit := func(ev live.WatchEvent) bool {
		if ndjson {
			_ = enc.Encode(ev)
		} else {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		// Heartbeats only keep the connection alive — a transcript asking
		// for limit=N is owed N real events, however quiet the stream.
		if ev.Type != "heartbeat" {
			sent++
		}
		return limit == 0 || sent < limit
	}
	for {
		evs, open := wch.Next(r.Context(), heartbeat)
		if r.Context().Err() != nil {
			return
		}
		if len(evs) == 0 && open {
			evs = []live.WatchEvent{{Type: "heartbeat"}}
		}
		for _, ev := range evs {
			if !emit(ev) {
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !open {
			return
		}
	}
}

// AttachLiveFeed opens a managed session on netName wired to a feed
// ingester (aalwinesd -feed). The session is registered like any other, so
// API clients can list it, register watches on it, and stream verdict
// changes while the feed drives the network state. opts.Hub is supplied by
// the server (any caller value is overwritten); Window, MaxPending and
// OnFlush pass through. The returned ingester is ready for Run; the
// session id is returned for logging.
func (s *Server) AttachLiveFeed(netName string, opts live.Options) (*live.Ingester, string, error) {
	net := s.lookup(netName)
	if net == nil {
		return nil, "", fmt.Errorf("unknown network %q", netName)
	}
	sess := scenario.NewSession(net)
	e := s.openSession(netName, sess, 0)
	opts.Hub = e.hub
	return live.NewIngester(sess, opts), e.id, nil
}
