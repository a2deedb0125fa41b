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

// TestOnTheFlyAllocBudget bounds the bytes one on-the-fly saturation of
// Table 1 row 1 allocates on a mid-size NORDUnet network: the state table,
// out-lists, witness arena, rule store and lazy index together. The bound
// leaves about a fifth of headroom over the 26.0 MB measured, and sits
// below the 37.3 MB the stores cost when out-lists started at four slots,
// edges and rules carried their own weight slices and the state table grew
// by append.
func TestOnTheFlyAllocBudget(t *testing.T) {
	const budget = 32 << 20
	s := gen.Nordunet(gen.NordOpts{Services: 10, EdgeRouters: 20, Seed: 1})
	text := s.Table1Queries()[0].Text
	q, err := query.Parse(text, s.Net)
	if err != nil {
		t.Fatalf("%q: %v", text, err)
	}
	sys := translate.Build(s.Net, q, translate.Options{Mode: translate.Over, Slice: true})
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
	t.Logf("%q: %.1f MB", text, float64(got)/(1<<20))
	if got > budget {
		t.Errorf("one saturation allocated %.1f MB, budget %.1f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
	}
}
