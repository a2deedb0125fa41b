// Package obs is the dependency-free metrics subsystem behind the
// verification pipeline's observability: atomic counters, gauges and
// fixed-bucket latency histograms collected in a Registry that can render
// itself as a JSON snapshot (the CLI's -stats dump), as Prometheus text
// exposition (aalwinesd's GET /metrics) or as an expvar variable. The
// paper's headline claim is interactive-speed what-if verification; these
// counters are how the reproduction shows where per-query time actually
// goes (saturation work, cache effectiveness, queueing, per-phase
// latency).
//
// Metric names follow the Prometheus conventions documented in DESIGN.md
// ("Observability"): snake_case, a `_total` suffix on monotonic counters,
// `_seconds` on duration histograms, and optional labels spelled inline in
// the name — Counter(`engine_phase_seconds{phase="build"}`) — so the
// registry itself stays a flat name → metric map.
//
// All metric types are safe for concurrent use and designed for hot
// loops: a Counter.Add is one atomic add; saturation batches its tallies
// locally and flushes once per run. Snapshot returns deep copies, so a
// snapshot taken before a burst of updates is never retroactively
// modified.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float64 (busy-seconds and
// histogram sums); Add uses a compare-and-swap loop on the bit pattern.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current sum.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Gauge is an instantaneous int64 value (worker occupancy, peak depths).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger; used for peak values.
func (g *Gauge) SetMax(n int64) {
	for {
		old := g.v.Load()
		if n <= old || g.v.CompareAndSwap(old, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning 10µs (a cached translation of a trivial query) to 60s (a
// saturation that should have been budgeted).
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observations, like every other metric operation, are lock-free.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    FloatCounter
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot copies the histogram counters; not atomic across buckets, which
// is the usual (and here acceptable) scrape-time approximation.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per-bucket; last entry is the +Inf bucket
}

// Snapshot is a deep, JSON-marshalable copy of a registry's state.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	FloatCounters map[string]float64           `json:"floatCounters,omitempty"`
	Gauges        map[string]int64             `json:"gauges"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Registry is a flat name → metric map. Metrics are created on first use
// and live forever; all accessors are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	floats map[string]*FloatCounter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		floats: make(map[string]*FloatCounter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// FloatCounter returns the named float counter, creating it if needed.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.floats[name]
	if f == nil {
		f = &FloatCounter{}
		r.floats[name] = f
	}
	return f
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (nil = DefBuckets) if needed. An existing histogram keeps its
// original bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot returns a deep copy of every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	if len(r.floats) > 0 {
		s.FloatCounters = make(map[string]float64, len(r.floats))
	}
	for n, c := range r.counts {
		s.Counters[n] = c.Value()
	}
	for n, f := range r.floats {
		s.FloatCounters[n] = f.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// splitName separates an inline-labeled metric name into its base name and
// the label list without braces: `a{b="c"}` → (`a`, `b="c"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels renders a label list (either part may be empty).
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, with one deterministic, sorted pass per metric family.
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	typed := map[string]string{}
	for _, n := range sortedKeys(snap.Counters) {
		writeTyped(w, typed, n, "counter")
		fmt.Fprintf(w, "%s %d\n", n, snap.Counters[n])
	}
	for _, n := range sortedKeys(snap.FloatCounters) {
		writeTyped(w, typed, n, "counter")
		fmt.Fprintf(w, "%s %g\n", n, snap.FloatCounters[n])
	}
	for _, n := range sortedKeys(snap.Gauges) {
		writeTyped(w, typed, n, "gauge")
		fmt.Fprintf(w, "%s %d\n", n, snap.Gauges[n])
	}
	for _, n := range sortedKeys(snap.Histograms) {
		h := snap.Histograms[n]
		base, labels := splitName(n)
		writeTyped(w, typed, base, "histogram")
		cum := int64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s} %d\n", base, joinLabels(labels, `le="`+le+`"`), cum)
		}
		if labels == "" {
			fmt.Fprintf(w, "%s_sum %g\n", base, h.Sum)
			fmt.Fprintf(w, "%s_count %d\n", base, h.Count)
		} else {
			fmt.Fprintf(w, "%s_sum{%s} %g\n", base, labels, h.Sum)
			fmt.Fprintf(w, "%s_count{%s} %d\n", base, labels, h.Count)
		}
	}
}

func writeTyped(w io.Writer, typed map[string]string, name, kind string) {
	base, _ := splitName(name)
	if typed[base] == "" {
		fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		typed[base] = kind
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// WriteJSON writes an indented JSON snapshot (the CLI's -stats dump).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry in Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Default is the process-wide registry every instrumented package records
// into; the package-level helpers below address it.
var Default = NewRegistry()

// GetCounter returns a counter from the default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetFloatCounter returns a float counter from the default registry.
func GetFloatCounter(name string) *FloatCounter { return Default.FloatCounter(name) }

// GetGauge returns a gauge from the default registry.
func GetGauge(name string) *Gauge { return Default.Gauge(name) }

// GetHistogram returns a histogram from the default registry (nil bounds =
// DefBuckets).
func GetHistogram(name string, bounds []float64) *Histogram { return Default.Histogram(name, bounds) }

var expvarOnce sync.Once

// PublishExpvar publishes the default registry as the expvar variable
// "aalwines_metrics" (idempotent; expvar forbids re-publication).
func PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("aalwines_metrics", expvar.Func(func() interface{} {
			return Default.Snapshot()
		}))
	})
}
