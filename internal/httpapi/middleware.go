package httpapi

import (
	"fmt"
	"net/http"
	"strings"
)

// envelopeWriter rewrites the mux's plain-text 404/405 pages on /api/
// paths into the standard JSON error envelope. Handlers that write their
// own JSON errors (they always set Content-Type first) pass through
// untouched; only a text-typed 404/405 — the signature of the mux itself —
// is intercepted, its body swallowed and replaced.
type envelopeWriter struct {
	http.ResponseWriter
	req         *http.Request
	wroteHeader bool
	intercepted bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wroteHeader {
		ew.ResponseWriter.WriteHeader(status)
		return
	}
	ew.wroteHeader = true
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(ew.req.URL.Path, "/api/") &&
		!strings.HasPrefix(ew.Header().Get("Content-Type"), "application/json") {
		ew.intercepted = true
		ew.Header().Del("X-Content-Type-Options")
		if status == http.StatusNotFound {
			writeError(ew.ResponseWriter, "not-found", "no such route: "+ew.req.URL.Path, nil)
			return
		}
		var details map[string]string
		if allow := ew.Header().Get("Allow"); allow != "" {
			details = map[string]string{"allow": allow}
		}
		writeError(ew.ResponseWriter, "method-not-allowed",
			fmt.Sprintf("method %s not allowed on %s", ew.req.Method, ew.req.URL.Path), details)
		return
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(b []byte) (int, error) {
	if ew.intercepted {
		// Swallow the mux's plain-text body; the envelope is already out.
		return len(b), nil
	}
	ew.wroteHeader = true
	return ew.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so streaming handlers (sweep
// NDJSON, watch event streams) keep working through the wrapper.
func (ew *envelopeWriter) Flush() {
	if f, ok := ew.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMiddleware wraps the mux with the body cap, the uniform-envelope
// writer and panic recovery: request bodies are cut at maxBodyBytes,
// mux-generated 404/405 responses under /api/ carry the JSON error
// envelope, and a handler panic becomes a 500 "internal-error" envelope
// when the response has not started, instead of the empty reply net/http
// would produce. http.ErrAbortHandler (the sanctioned way to drop a
// connection) is re-raised.
func withMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		ew := &envelopeWriter{ResponseWriter: w, req: r}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			if !ew.wroteHeader {
				writeError(ew, "internal-error", fmt.Sprintf("internal error: %v", p), nil)
			}
			// Mid-stream panics can only truncate the response; the status
			// is already on the wire.
		}()
		h.ServeHTTP(ew, r)
	})
}
