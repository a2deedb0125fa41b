package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one op share Op; Parent is the id
// of the enclosing span (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them once the run is over, so
// the measured phase never touches the disk.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new op: spans recorded from now on carry its id.
func (t *tracer) nextOp() { t.op++ }

// add records an interval that has already been measured.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: t.op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func()) {
	id := t.begin(name, parent)
	f()
	t.end(id)
}

// child records a span of known duration d inside parent, laid out right
// after the parent's previous child. Durations the program measures itself
// (engine.Stats phases) enter the trace this way: their order inside the
// parent is the program's, their exact offsets are not observable.
func (t *tracer) child(name string, parent int, d time.Duration) {
	p := t.spans[parent-1]
	at := p.Start
	for i := len(t.spans) - 1; i >= parent; i-- {
		if t.spans[i].Parent == parent {
			at = t.spans[i].End
			break
		}
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: at, End: at + int64(d),
	})
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of cs spans.
func covered(p span, cs []span) time.Duration {
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// totals sums span durations per name.
func totals(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur()
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
