package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; the sum
// must be exact (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	f := r.FloatCounter("f")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := f.Value(), float64(workers*per)*0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("float counter = %g, want %g", got, want)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 7999 {
		t.Fatalf("max gauge = %d, want 7999", got)
	}
}

// TestHistogramConcurrent checks that concurrent observations lose nothing
// and land in the right buckets.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	const workers, per = 8, 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i % 3 * 50)) // 0, 50, 100 → buckets 0, 2, 2
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Counts[0] != workers*per/3 {
		t.Errorf("bucket[≤1] = %d, want %d", s.Counts[0], workers*per/3)
	}
	if s.Counts[2] != 2*workers*per/3 {
		t.Errorf("bucket[≤100] = %d, want %d", s.Counts[2], 2*workers*per/3)
	}
	if s.Counts[3] != 0 {
		t.Errorf("+Inf bucket = %d, want 0", s.Counts[3])
	}
}

// TestSnapshotIsolation verifies a snapshot is a deep copy: updates after
// the snapshot must not leak into it.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	c.Add(5)
	h.Observe(0.01)
	snap := r.Snapshot()
	c.Add(100)
	h.Observe(0.01)
	h.Observe(5)
	if snap.Counters["c"] != 5 {
		t.Errorf("snapshot counter = %d, want 5", snap.Counters["c"])
	}
	hs := snap.Histograms["h"]
	if hs.Count != 1 {
		t.Errorf("snapshot histogram count = %d, want 1", hs.Count)
	}
	var total int64
	for _, n := range hs.Counts {
		total += n
	}
	if total != 1 {
		t.Errorf("snapshot bucket total = %d, want 1", total)
	}
}

// TestWritePrometheus pins the exposition format: TYPE lines, label
// merging for labeled histograms, cumulative buckets, +Inf terminal.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("widgets_total").Add(3)
	r.Counter(`hits_total{net="a b"}`).Add(2)
	r.Gauge("depth").Set(9)
	h := r.Histogram(`lat_seconds{phase="over"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE widgets_total counter",
		"widgets_total 3",
		`hits_total{net="a b"} 2`,
		"# TYPE depth gauge",
		"depth 9",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{phase="over",le="0.1"} 1`,
		`lat_seconds_bucket{phase="over",le="1"} 2`,
		`lat_seconds_bucket{phase="over",le="+Inf"} 3`,
		`lat_seconds_count{phase="over"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Histogram("h", nil).ObserveDuration(3 * time.Millisecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["c"] != 2 || snap.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", snap)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	PublishExpvar()
	PublishExpvar() // second call must not panic on duplicate publication
}
