package live

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aalwines/internal/engine"
	"aalwines/internal/gen"
	"aalwines/internal/scenario"
)

// witnessQuery reaches from the running example's source to sink with no
// failures allowed; failing a link on the only k=0 path flips its verdict.
const witnessQuery = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0"

func newHubFixture(t *testing.T) (*scenario.Session, *Hub) {
	t.Helper()
	re := gen.RunningExample()
	sess := scenario.NewSession(re.Network)
	t.Cleanup(sess.Close)
	return sess, NewHub(sess, HubOptions{})
}

func drainAll(t *testing.T, w *Watch) []WatchEvent {
	t.Helper()
	var out []WatchEvent
	for {
		evs, open := w.Next(context.Background(), 5*time.Millisecond)
		out = append(out, evs...)
		if !open || len(evs) == 0 {
			return out
		}
	}
}

func TestHubWatchLifecycle(t *testing.T) {
	sess, hub := newHubFixture(t)
	ctx := context.Background()

	w, err := hub.AddWatch(ctx, []string{witnessQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, w)
	if len(evs) != 1 || evs[0].Type != "verdict" || evs[0].Seq != 0 {
		t.Fatalf("initial events = %+v, want one seq-0 verdict", evs)
	}
	initial := *evs[0].Cell
	if initial.Verdict == "" {
		t.Fatal("initial cell has no verdict")
	}

	// An identical refresh pushes nothing.
	if n := hub.Refresh(ctx); n != 0 {
		t.Fatalf("no-op refresh changed %d cells", n)
	}
	if evs := drainAll(t, w); len(evs) != 0 {
		t.Fatalf("no-op refresh produced events: %+v", evs)
	}

	// Failing a link on the witness path changes the cell exactly once.
	if _, err := sess.ApplyText("fail " + initial.Trace[0].Link); err != nil {
		t.Fatal(err)
	}
	if n := hub.Refresh(ctx); n != 1 {
		t.Fatalf("refresh changed %d cells, want 1", n)
	}
	evs = drainAll(t, w)
	// Seq 2: the no-op refresh above was seq 1 (every refresh advances the
	// sequence, changed cells or not).
	if len(evs) != 1 || evs[0].Type != "verdict" || evs[0].Seq != 2 {
		t.Fatalf("post-fail events = %+v", evs)
	}
	if evs[0].Cell.Verdict == initial.Verdict {
		t.Fatal("verdict did not change after failing the witness link")
	}

	// Listings see the watch; closing it delivers a terminal close event.
	ws := hub.Watches()
	if len(ws) != 1 || ws[0].ID != w.ID() {
		t.Fatalf("watch list = %+v", ws)
	}
	if !hub.CloseWatch(w.ID(), "client-request") {
		t.Fatal("CloseWatch did not find the watch")
	}
	evs, open := w.Next(ctx, time.Second)
	if open || len(evs) != 1 || evs[0].Type != "close" || evs[0].Reason != "client-request" {
		t.Fatalf("close events = %+v open=%v", evs, open)
	}
	if hub.CloseWatch(w.ID(), "again") {
		t.Fatal("double close succeeded")
	}
}

// TestHubWatchesOrder: listings order watch ids numerically, w2 before
// w10.
func TestHubWatchesOrder(t *testing.T) {
	_, hub := newHubFixture(t)
	for i := 0; i < 11; i++ {
		if _, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ws := hub.Watches()
	if len(ws) != 11 {
		t.Fatalf("%d watches listed, want 11", len(ws))
	}
	for i, w := range ws {
		if want := fmt.Sprintf("w%d", i+1); w.ID != want {
			t.Errorf("watch %d is %s, want %s", i, w.ID, want)
		}
	}
}

func TestHubRejectsBadQuery(t *testing.T) {
	_, hub := newHubFixture(t)
	_, err := hub.AddWatch(context.Background(), []string{"<s40"}, 0)
	var bad *engine.QueryError
	if !errors.As(err, &bad) || bad.Query != "<s40" {
		t.Fatalf("err = %v, want an engine.QueryError naming the invariant", err)
	}
	if _, err := hub.AddWatch(context.Background(), nil, 0); err == nil {
		t.Fatal("watch without invariants accepted")
	}
}

func TestHubCloseEndsWatches(t *testing.T) {
	_, hub := newHubFixture(t)
	w, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hub.Close("session-closed")
	hub.Close("twice") // idempotent
	var last WatchEvent
	for {
		evs, open := w.Next(context.Background(), time.Second)
		if len(evs) > 0 {
			last = evs[len(evs)-1]
		}
		if !open {
			break
		}
	}
	if last.Type != "close" || last.Reason != "session-closed" {
		t.Fatalf("last event = %+v, want session-closed close", last)
	}
	if _, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 0); err != ErrClosed {
		t.Fatalf("AddWatch after close: %v, want ErrClosed", err)
	}
}

func TestWatchBackpressureGap(t *testing.T) {
	_, hub := newHubFixture(t)
	w, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if evs := drainAll(t, w); len(evs) != 1 {
		t.Fatalf("initial = %+v", evs)
	}
	// Push past the buffer without draining: the oldest events fall off and
	// the next drain leads with an honest gap.
	for i := 0; i < 12; i++ {
		c := Cell{Query: witnessQuery, Verdict: "satisfied"}
		w.push(WatchEvent{Type: "verdict", Seq: int64(i + 1), Query: witnessQuery, Cell: &c})
	}
	evs, open := w.Next(context.Background(), time.Second)
	if !open {
		t.Fatal("watch closed unexpectedly")
	}
	if len(evs) != 9 || evs[0].Type != "gap" || evs[0].Dropped != 4 {
		t.Fatalf("drained %d events, first %+v; want gap(4) + 8 verdicts", len(evs), evs[0])
	}
	if evs[1].Seq != 5 || evs[8].Seq != 12 {
		t.Fatalf("kept window = seq %d..%d, want 5..12 (drop-oldest)", evs[1].Seq, evs[8].Seq)
	}

	// The terminal close always fits, evicting an older event if needed.
	for i := 0; i < 8; i++ {
		c := Cell{Query: witnessQuery}
		w.push(WatchEvent{Type: "verdict", Seq: int64(100 + i), Cell: &c})
	}
	w.close("session-closed")
	evs, open = w.Next(context.Background(), time.Second)
	if open {
		t.Fatal("close event not terminal")
	}
	if evs[0].Type != "gap" || evs[len(evs)-1].Type != "close" {
		t.Fatalf("events = %+v, want gap first, close last", evs)
	}
}

// TestCloseWatchDuringAddWatchSeeding is the regression test for the
// AddWatch/CloseWatch race: AddWatch drops h.mu during its seeding
// verification, and a concurrent CloseWatch dropping the last reference to
// an already-tracked query must not delete its cell out from under the
// seeding loop (nil-pointer panic, leaked refs). Run with -race.
func TestCloseWatchDuringAddWatchSeeding(t *testing.T) {
	_, hub := newHubFixture(t)
	ctx := context.Background()
	// Same invariant with a different failure budget: parses fine, is never
	// pre-tracked, and forces the fresh-verification window.
	const other = "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 1"
	for i := 0; i < 10; i++ {
		w1, err := hub.AddWatch(ctx, []string{witnessQuery}, 0)
		if err != nil {
			t.Fatal(err)
		}
		closed := make(chan struct{})
		go func() {
			defer close(closed)
			hub.CloseWatch(w1.ID(), "client-request")
		}()
		// witnessQuery is tracked via w1; other is fresh, so this AddWatch
		// verifies outside h.mu — the window the CloseWatch above races.
		w2, err := hub.AddWatch(ctx, []string{witnessQuery, other}, 0)
		if err != nil {
			t.Fatal(err)
		}
		<-closed
		verdicts := 0
		for _, ev := range drainAll(t, w2) {
			if ev.Type == "verdict" {
				verdicts++
				if ev.Cell == nil || ev.Cell.Code == "internal-error" {
					t.Fatalf("seeded a lost cell: %+v", ev)
				}
			}
		}
		if verdicts != 2 {
			t.Fatalf("seeded %d verdicts, want 2", verdicts)
		}
		if !hub.CloseWatch(w2.ID(), "client-request") {
			t.Fatal("CloseWatch(w2) did not find the watch")
		}
	}
}

// TestCloseWatchAfterHubClose checks CloseWatch on a closed hub is a
// bookkeeping no-op: Close already settled the live-watch gauge and the
// cell refs, so a racing per-watch close must not decrement them again.
func TestCloseWatchAfterHubClose(t *testing.T) {
	_, hub := newHubFixture(t)
	w, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := mWatchesLive.Value()
	hub.Close("session-closed")
	if got := mWatchesLive.Value(); got != before-1 {
		t.Fatalf("gauge after Close = %d, want %d", got, before-1)
	}
	// The id stays addressable for draining; re-closing reports it existed
	// but must not touch the gauge again.
	if !hub.CloseWatch(w.ID(), "client-request") {
		t.Fatal("CloseWatch on closed hub did not find the watch")
	}
	if got := mWatchesLive.Value(); got != before-1 {
		t.Fatalf("gauge after CloseWatch on closed hub = %d, want %d", got, before-1)
	}
	evs, open := w.Next(context.Background(), time.Second)
	if open || len(evs) == 0 || evs[len(evs)-1].Reason != "session-closed" {
		t.Fatalf("drain after double close = %+v open=%v", evs, open)
	}
}

func TestWatchStreamAttach(t *testing.T) {
	_, hub := newHubFixture(t)
	w, err := hub.AddWatch(context.Background(), []string{witnessQuery}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !w.TryAttach() {
		t.Fatal("first attach refused")
	}
	if w.TryAttach() {
		t.Fatal("second concurrent attach allowed")
	}
	w.Detach()
	if !w.TryAttach() {
		t.Fatal("re-attach after detach refused")
	}
}
