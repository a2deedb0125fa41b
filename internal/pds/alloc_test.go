package pds_test

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"aalwines/internal/gen"
	"aalwines/internal/pds"
	"aalwines/internal/query"
	"aalwines/internal/translate"
)

// TestRecordLayout pins the records post* keeps one of per transition and
// per generated rule. An edge reads its weight from its witness record, and
// a rule names its weight vector by index, so neither carries a slice: a
// rule holds no pointers at all and stays out of the collector's scan set.
func TestRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(pds.Edge{}); n != 16 {
		t.Errorf("pds.Edge is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(pds.Rule{}); n > 32 {
		t.Errorf("pds.Rule is %d bytes, want at most 32", n)
	}
	rt := reflect.TypeOf(pds.Rule{})
	for i := 0; i < rt.NumField(); i++ {
		switch f := rt.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("pds.Rule field %s is a %s; a rule must hold no pointers", f.Name, f.Type.Kind())
		}
	}
}

// midNordunetRow1 translates Table 1 row 1 on a mid-size NORDUnet network
// into the on-the-fly product, as one-shot verification builds it.
func midNordunetRow1(t *testing.T) *translate.System {
	t.Helper()
	s := gen.Nordunet(gen.NordOpts{Services: 10, EdgeRouters: 20, Seed: 1})
	text := s.Table1Queries()[0].Text
	q, err := query.Parse(text, s.Net)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	return translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: true})
}

// TestOnTheFlyAllocBudget bounds the bytes one on-the-fly saturation of
// Table 1 row 1 allocates on a mid-size NORDUnet network: the state table,
// out-lists, witness arena, rule pages and lazy index together. The bound
// leaves about a fifth of headroom over the 17.9 MB measured (up to
// 19.4 MB under the race detector, where sync.Pool drops some scratch),
// and sits below the 26.0 MB the stores cost when the rule store, the
// state table and the transition index grew by doubling and copying.
func TestOnTheFlyAllocBudget(t *testing.T) {
	const budget = 21.5 * (1 << 20)
	sys := midNordunetRow1(t)
	saturate := func() uint64 {
		init := sys.InitAuto()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := pds.PoststarOpts(sys.PDS, init, pds.SatOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Auto.NumTrans() == 0 {
			t.Fatal("empty saturation result")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	saturate() // the first run fills the worklist scratch pool
	got := saturate()
	t.Logf("%.1f MB", float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one saturation allocated %.1f MB, budget %.1f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}

// TestOnTheFlyAllocKept holds one cold on-the-fly saturation of the same
// row to allocating little beyond what its Result keeps: the bytes the
// run allocates over the heap the Result retains after a collection.
// Stores that grow by doubling and copying leave their old arrays behind;
// the chunked and paged stores leave little beyond the run's scratch, its
// head index and the generator's own garbage. The run measured 18.9 MB
// allocated for 11.1 MB kept, a ratio of 1.7 (up to 1.81 under the race
// detector); the stores that doubled measured 26.6 MB for 12.3 MB, 2.16.
func TestOnTheFlyAllocKept(t *testing.T) {
	const maxRatio = 2.0
	sys := midNordunetRow1(t)
	init := sys.InitAuto()
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res, err := pds.PoststarOpts(sys.PDS, init, pds.SatOptions{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	init = nil
	// The second collection empties sync.Pool's victim cache, which would
	// otherwise keep the run's scratch.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m2)
	alloc := float64(m1.TotalAlloc - m0.TotalAlloc)
	kept := float64(int64(m2.HeapAlloc) - int64(m0.HeapAlloc))
	runtime.KeepAlive(res)
	ratio := alloc / kept
	t.Logf("allocated %.1f MB, kept %.1f MB, ratio %.2f", alloc/(1<<20), kept/(1<<20), ratio)
	if kept <= 0 || ratio > maxRatio {
		t.Errorf("allocated %.1f MB to keep %.1f MB (ratio %.2f), bound %.2f", alloc/(1<<20), kept/(1<<20), ratio, maxRatio)
	}
}

// TestEagerAllocBudget bounds what post* allocates on the small eager
// products resilience sweeps and daemon sessions saturate: the
// over-approximations of a few queries on a protected 18-router zoo
// network. The stores' first chunks must stay small enough that these
// runs allocate no more than the doubling stores did. The bound leaves a
// fifth of headroom over the 92.7 KB measured per saturation, which covers
// a pool miss on every run, and sits below the doubling stores' 121.6 KB.
func TestEagerAllocBudget(t *testing.T) {
	const budget = 112 << 10
	s := gen.Zoo(gen.ZooOpts{Routers: 18, Seed: 1, Protection: true})
	type input struct {
		sys  *translate.System
		init *pds.Auto
	}
	var ins []input
	for _, gq := range s.Queries(6, 1) {
		q, err := query.Parse(gq.Text, s.Net)
		if err != nil {
			t.Fatalf("%q: %v", gq.Text, err)
		}
		sys := translate.Build(s.Net, q, translate.Options{Mode: translate.Over})
		sys.PDS.Freeze()
		ins = append(ins, input{sys, sys.InitAuto()})
	}
	saturate := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, in := range ins {
			if _, err := pds.PoststarOpts(in.sys.PDS, in.init.Clone(), pds.SatOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	saturate() // the first pass fills the worklist scratch pool
	got := saturate() / uint64(len(ins))
	t.Logf("%.1f KB per saturation", float64(got)/(1<<10))
	if got > budget {
		t.Errorf("one saturation allocated %.1f KB, budget %.1f KB", float64(got)/(1<<10), float64(budget)/(1<<10))
	}
}
