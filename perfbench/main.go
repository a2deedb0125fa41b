// Command perfbench is the repository's benchmark: one closed-loop driver
// (one goroutine, the next op starts only after the previous one returned)
// over three workloads that stress different layers of the verifier.
//
//	go run . --workload paper-250k --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// re-drives the same work through each layer's public functions, timing
// every call, and prints per-layer metrics instead. The last line of
// standard output is always the JSON report; README.md documents the
// metrics, the workloads and why they are built the way they are.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aalwines/internal/gen"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: the op accounting, its metrics, and
// the spans of a traced run.
type run struct {
	attempted, failed int
	metrics           map[string]metric
	info              []string // human-readable notes, printed before the report
	trace             *tracer
}

func (r *run) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records a failed op with the reason; the first few reasons are
// printed.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		r.note("FAIL: "+format, args...)
	}
}

// endToEnd lists the metrics of an untraced run. Every workload reports
// all of them; README.md gives each one's meaning per workload.
var endToEnd = []string{
	"setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms",
	"write_p50_ms", "write_tail_ms", "watch_lag_p50_ms",
	"alloc_mb_per_op", "peak_rss_mb",
}

// perLayer lists the metrics of a traced run with their units. A workload
// that bypasses a layer reports its metrics as 0: that layer did no work.
var perLayer = [][2]string{
	{"xmlio.read_s", "s"},
	{"query.parse_ms", "ms"},
	{"translate.build_over_ms", "ms"},
	{"translate.rules_over", "count"},
	{"translate.slice_keep_ratio", "ratio"},
	{"pds.post_over_ms", "ms"},
	{"pds.pops_over", "count"},
	{"pds.early_accept_ratio", "ratio"},
	{"pds.witness_ms", "ms"},
	{"translate.decode_ms", "ms"},
	{"network.feasible_ms", "ms"},
	{"translate.build_under_ms", "ms"},
	{"pds.post_under_ms", "ms"},
	{"engine.under_ratio", "ratio"},
	{"bench.unattributed_ms", "ms"},
	{"scenario.set_stack_ms", "ms"},
	{"translate.assemble_ms", "ms"},
	{"translate.blocks_rebuilt", "count"},
	{"translate.block_reuse_ratio", "ratio"},
	{"batch.verify_batch_ms", "ms"},
	{"batch.queue_wait_ms", "ms"},
	{"httpapi.read_overhead_ms", "ms"},
	{"httpapi.write_overhead_ms", "ms"},
	{"live.reverify_ms", "ms"},
	{"live.watch_events", "count"},
	{"live.watch_dropped", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// complete checks that a run reported exactly the metrics of its mode,
// filling the per-layer metrics of bypassed layers with 0.
func (r *run) complete(traced bool) error {
	want := map[string]bool{}
	if traced {
		for _, m := range perLayer {
			want[m[0]] = true
			if _, ok := r.metrics[m[0]]; !ok {
				r.set(m[0], 0, m[1])
			}
		}
	} else {
		for _, name := range endToEnd {
			want[name] = true
			if _, ok := r.metrics[name]; !ok {
				return fmt.Errorf("metric %s missing", name)
			}
		}
	}
	for name := range r.metrics {
		if !want[name] {
			return fmt.Errorf("metric %s is not a %s metric", name, map[bool]string{false: "end-to-end", true: "per-layer"}[traced])
		}
	}
	return nil
}

// config is the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
}

var workloads = map[string]func(config) (*run, error){
	"paper-250k":    runPaper,
	"sweep-d2":      runSweep,
	"daemon-whatif": runDaemon,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-250k, sweep-d2 or daemon-whatif")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run with per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	// A traced run's spans go next to the build outputs.
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	cfg.traceOut = filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-250k|sweep-d2|daemon-whatif, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	// One driving goroutine on a two-core box: the collector gets the
	// other core, the program runs serially.
	r, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.complete(cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.trace != nil {
		if err := r.trace.write(cfg.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		r.note("spans: %d written to %s", len(r.trace.spans), cfg.traceOut)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)
	for _, l := range r.info {
		fmt.Println(l)
	}
	out, err := json.Marshal(report{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// totalAlloc returns the cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// deadline is the closed loop's clock: ops start only while it has not
// passed.
type deadline time.Time

func deadlineIn(seconds float64) deadline {
	return deadline(time.Now().Add(time.Duration(seconds * float64(time.Second))))
}

func (d deadline) passed() bool { return !time.Now().Before(time.Time(d)) }

// window runs pass once, then again as long as another pass as long as
// the last one still ends within the measured seconds. For passes of
// several seconds (a query list, a whole sweep) this keeps the pass count
// — and with it the run's length and working set — the same from run to
// run, where "start while time is left" would flip between one and two.
func window(seconds float64, pass func()) {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		t0 := time.Now()
		pass()
		if time.Now().Add(time.Since(t0)).After(end) {
			return
		}
	}
}

// pickQueries returns, per requested family, a generated query of that
// family with failure bound k, all distinct, in the order asked. The seed
// picks the endpoints; family and bound are fixed because they set most of
// a query's cost, and a seed must not change a workload's cost profile.
// Queries is drawn five at a time (one per endpoint-bearing family before
// the double-backup family, which unprotected networks cannot generate).
func pickQueries(syn *gen.Synth, seed int64, k int, kinds ...gen.QueryKind) []string {
	out := make([]string, len(kinds))
	seen := map[string]bool{}
	left := len(kinds)
	for i := int64(0); left > 0 && i < 1000; i++ {
		for _, q := range syn.Queries(5, seed*1000+i) {
			if q.K != k || seen[q.Text] {
				continue
			}
			for j, kind := range kinds {
				if out[j] == "" && q.Kind == kind {
					out[j] = q.Text
					seen[q.Text] = true
					left--
					break
				}
			}
		}
	}
	if left > 0 {
		return nil
	}
	return out
}
