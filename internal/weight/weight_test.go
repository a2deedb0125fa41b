package weight_test

import (
	"testing"

	"aalwines/internal/gen"
	"aalwines/internal/topology"
	"aalwines/internal/weight"
)

// TestPaperAtomValues checks the quantities reported in §3 for the running
// example traces: Hops(σ0)=Links(σ0)=4, Hops(σ3)=Links(σ3)=5,
// Failures(σ2)=1, Failures(σ3)=0, Tunnels(σ1)=1, Tunnels(σ2)=2,
// Tunnels(σ3)=0.
func TestPaperAtomValues(t *testing.T) {
	re := gen.RunningExample()
	cases := []struct {
		sigma             int
		links, hops       uint64
		failures, tunnels uint64
	}{
		{0, 4, 4, 0, 1}, // σ0 pushes s20 at v0: one tunnel
		{1, 4, 4, 0, 1},
		{2, 5, 5, 1, 2},
		{3, 5, 5, 0, 0},
	}
	for _, c := range cases {
		a := weight.EvalTrace(re.Network, re.Sigma(c.sigma), nil)
		if a[weight.Links] != c.links {
			t.Errorf("Links(σ%d) = %d, want %d", c.sigma, a[weight.Links], c.links)
		}
		if a[weight.Hops] != c.hops {
			t.Errorf("Hops(σ%d) = %d, want %d", c.sigma, a[weight.Hops], c.hops)
		}
		if a[weight.Failures] != c.failures {
			t.Errorf("Failures(σ%d) = %d, want %d", c.sigma, a[weight.Failures], c.failures)
		}
		if a[weight.Tunnels] != c.tunnels {
			t.Errorf("Tunnels(σ%d) = %d, want %d", c.sigma, a[weight.Tunnels], c.tunnels)
		}
	}
}

// TestPaperMinimumWitness reproduces the §3 computation: on the vector
// (Hops, Failures + 3*Tunnels), σ2 evaluates to (5,7) and σ3 to (5,0), and
// (5,0) ⊑ (5,7).
func TestPaperMinimumWitness(t *testing.T) {
	re := gen.RunningExample()
	spec, err := weight.ParseSpec("Hops, Failures + 3*Tunnels")
	if err != nil {
		t.Fatal(err)
	}
	v2 := spec.Eval(weight.EvalTrace(re.Network, re.Sigma(2), nil))
	v3 := spec.Eval(weight.EvalTrace(re.Network, re.Sigma(3), nil))
	if !v2.Equal(weight.Vec{5, 7}) {
		t.Errorf("σ2 weight = %v, want (5, 7)", v2)
	}
	if !v3.Equal(weight.Vec{5, 0}) {
		t.Errorf("σ3 weight = %v, want (5, 0)", v3)
	}
	if !v3.Less(v2) {
		t.Error("(5,0) not ⊑ (5,7)")
	}
}

func TestDistanceQuantity(t *testing.T) {
	re := gen.RunningExample()
	// All links have weight 1, so Distance == Links with the default dist.
	a := weight.EvalTrace(re.Network, re.Sigma(0), nil)
	if a[weight.Distance] != a[weight.Links] {
		t.Errorf("Distance = %d, Links = %d; want equal for unit weights",
			a[weight.Distance], a[weight.Links])
	}
}

func TestCustomDistanceFunc(t *testing.T) {
	re := gen.RunningExample()
	a := weight.EvalTrace(re.Network, re.Sigma(0), func(topology.LinkID) uint64 { return 10 })
	if a[weight.Distance] != 40 {
		t.Errorf("Distance with d≡10 over 4 links = %d, want 40", a[weight.Distance])
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"Hops", "(Hops)", false},
		{"Hops, Failures + 3*Tunnels", "(Hops, Failures + 3*Tunnels)", false},
		{"(links, 2*distance)", "(Links, 2*Distance)", false},
		{"latency", "(Distance)", false},
		{"", "()", false},
		{"bogus", "", true},
		{"3*", "", true},
		{"x*Hops", "", true},
		{"Hops + ", "", true},
	}
	for _, c := range cases {
		spec, err := weight.ParseSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): expected error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if c.in == "" {
			if spec != nil {
				t.Errorf("ParseSpec empty = %v, want nil", spec)
			}
			continue
		}
		if got := spec.String(); got != c.want {
			t.Errorf("ParseSpec(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestVecOrdering(t *testing.T) {
	cases := []struct {
		a, b weight.Vec
		less bool
	}{
		{weight.Vec{5, 0}, weight.Vec{5, 7}, true},
		{weight.Vec{5, 7}, weight.Vec{5, 0}, false},
		{weight.Vec{4, 9}, weight.Vec{5, 0}, true},
		{weight.Vec{5, 7}, weight.Vec{5, 7}, false},
		{weight.Vec{1}, nil, true},  // anything beats ⊥
		{nil, weight.Vec{1}, false}, // ⊥ beats nothing
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestVecString(t *testing.T) {
	if got := (weight.Vec{5, 7}).String(); got != "(5, 7)" {
		t.Errorf("String = %q", got)
	}
	if got := (weight.Vec)(nil).String(); got != "⊥" {
		t.Errorf("zero String = %q", got)
	}
}

func TestExprEval(t *testing.T) {
	var a weight.Atoms
	a[weight.Hops] = 5
	a[weight.Failures] = 1
	a[weight.Tunnels] = 2
	e := weight.Expr{{Coeff: 1, Q: weight.Failures}, {Coeff: 3, Q: weight.Tunnels}}
	if got := e.Eval(a); got != 7 {
		t.Errorf("Eval = %d, want 7", got)
	}
	if got := (weight.Expr{}).Eval(a); got != 0 {
		t.Errorf("empty Eval = %d, want 0", got)
	}
	if got := (weight.Expr{}).String(); got != "0" {
		t.Errorf("empty String = %q", got)
	}
}

func TestStepAtoms(t *testing.T) {
	re := gen.RunningExample()
	a := weight.StepAtoms(re.Topo, re.Links["e1"], nil, 2, 1)
	if a[weight.Links] != 1 || a[weight.Hops] != 1 || a[weight.Failures] != 2 || a[weight.Tunnels] != 1 {
		t.Errorf("StepAtoms = %v", a)
	}
	// Negative growth clamps Tunnels at 0.
	a = weight.StepAtoms(re.Topo, re.Links["e1"], nil, 0, -1)
	if a[weight.Tunnels] != 0 {
		t.Errorf("Tunnels for pop step = %d, want 0", a[weight.Tunnels])
	}
	// Custom distance function.
	a = weight.StepAtoms(re.Topo, re.Links["e1"], func(topology.LinkID) uint64 { return 42 }, 0, 0)
	_ = a
}
