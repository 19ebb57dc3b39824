package milp

import (
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
)

func TestPresolveTightensBounds(t *testing.T) {
	// x + y <= 4 with x,y in [0,10]: both uppers tighten to 4.
	m := lp.NewModel("ps")
	x := m.AddContinuous("x", 0, 10, 1)
	y := m.AddContinuous("y", 0, 10, 1)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	n, infeasible := presolve(m, 10)
	if infeasible {
		t.Fatal("feasible model declared infeasible")
	}
	if n == 0 {
		t.Fatal("no tightening happened")
	}
	if m.Var(x).Upper != 4 || m.Var(y).Upper != 4 {
		t.Errorf("uppers = %v, %v, want 4", m.Var(x).Upper, m.Var(y).Upper)
	}
}

func TestPresolveIntegerRounding(t *testing.T) {
	// 2g <= 7 with g integer in [0,10] → g ≤ 3 (floor of 3.5).
	m := lp.NewModel("pi")
	g := m.AddVar(lp.Variable{Name: "g", Lower: 0, Upper: 10, Type: lp.Integer})
	m.AddRow("r", []lp.Term{{Var: g, Coef: 2}}, lp.LE, 7)
	presolve(m, 10)
	if m.Var(g).Upper != 3 {
		t.Errorf("g upper = %v, want 3", m.Var(g).Upper)
	}
}

func TestPresolveDetectsInfeasible(t *testing.T) {
	m := lp.NewModel("inf")
	x := m.AddContinuous("x", 0, 1, 0)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 5)
	if _, infeasible := presolve(m, 10); !infeasible {
		t.Error("infeasible model not detected")
	}
}

func TestPresolveGEAndEQ(t *testing.T) {
	// x - y >= 3 with x ≤ 5 → y ≤ 2; plus a = 4 equality fixing.
	m := lp.NewModel("geq")
	x := m.AddContinuous("x", 0, 5, 0)
	y := m.AddContinuous("y", 0, 100, 0)
	a := m.AddContinuous("a", 0, 10, 0)
	m.AddRow("r1", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.GE, 3)
	m.AddRow("r2", []lp.Term{{Var: a, Coef: 1}}, lp.EQ, 4)
	presolve(m, 10)
	if m.Var(y).Upper != 2 {
		t.Errorf("y upper = %v, want 2", m.Var(y).Upper)
	}
	if m.Var(a).Lower != 4 || m.Var(a).Upper != 4 {
		t.Errorf("a bounds = [%v,%v], want fixed at 4", m.Var(a).Lower, m.Var(a).Upper)
	}
	// x must now be ≥ 3 (x ≥ 3 + y_lo).
	if m.Var(x).Lower != 3 {
		t.Errorf("x lower = %v, want 3", m.Var(x).Lower)
	}
}

func TestPresolveFreeVarsUntouched(t *testing.T) {
	// A row with a free variable has unbounded other-activity; the bounded
	// variable cannot be tightened through it.
	m := lp.NewModel("free")
	x := m.AddContinuous("x", math.Inf(-1), math.Inf(1), 0)
	y := m.AddContinuous("y", 0, 10, 0)
	m.AddRow("r", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	presolve(m, 10)
	if m.Var(y).Upper != 10 {
		t.Errorf("y upper changed to %v through a free variable", m.Var(y).Upper)
	}
	// But the free variable itself gains an upper bound (x ≤ 4 − y_lo).
	if m.Var(x).Upper != 4 {
		t.Errorf("x upper = %v, want 4", m.Var(x).Upper)
	}
}

// TestPresolveEdgeCases is the table-driven sweep of the degenerate
// inputs propagation has to survive: empty rows, already-fixed
// variables, and bound tightening that proves infeasibility (including
// integer rounding collapsing an interval past itself).
func TestPresolveEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		build          func() *lp.Model
		wantInfeasible bool
		check          func(t *testing.T, m *lp.Model)
	}{
		{
			name: "empty-row-feasible",
			build: func() *lp.Model {
				m := lp.NewModel("er")
				m.AddContinuous("x", 0, 10, 1)
				m.AddRow("empty", nil, lp.LE, 5) // 0 ≤ 5: vacuous
				return m
			},
			check: func(t *testing.T, m *lp.Model) {
				if m.Var(0).Upper != 10 {
					t.Errorf("empty row changed bounds: upper = %v", m.Var(0).Upper)
				}
			},
		},
		{
			name: "empty-row-infeasible",
			build: func() *lp.Model {
				m := lp.NewModel("eri")
				m.AddContinuous("x", 0, 10, 1)
				m.AddRow("empty", nil, lp.LE, -1) // 0 ≤ −1: impossible
				return m
			},
			wantInfeasible: true,
		},
		{
			name: "empty-eq-row-infeasible",
			build: func() *lp.Model {
				m := lp.NewModel("eqi")
				m.AddContinuous("x", 0, 10, 1)
				m.AddRow("empty", nil, lp.EQ, 2) // 0 = 2: impossible
				return m
			},
			wantInfeasible: true,
		},
		{
			name: "fixed-variable-propagates",
			build: func() *lp.Model {
				m := lp.NewModel("fx")
				x := m.AddContinuous("x", 3, 3, 0) // fixed at 3
				y := m.AddContinuous("y", 0, 10, 0)
				m.AddRow("r", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 5)
				return m
			},
			check: func(t *testing.T, m *lp.Model) {
				if m.Var(0).Lower != 3 || m.Var(0).Upper != 3 {
					t.Errorf("fixed variable moved: [%v,%v]", m.Var(0).Lower, m.Var(0).Upper)
				}
				if m.Var(1).Upper != 2 {
					t.Errorf("y upper = %v, want 2 (5 − fixed 3)", m.Var(1).Upper)
				}
			},
		},
		{
			name: "fixed-variable-conflict",
			build: func() *lp.Model {
				m := lp.NewModel("fc")
				x := m.AddContinuous("x", 3, 3, 0)
				m.AddRow("r", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 2) // 3 ≤ 2
				return m
			},
			wantInfeasible: true,
		},
		{
			name: "integer-rounding-collapses-interval",
			build: func() *lp.Model {
				// 0.4 ≤ x ≤ 0.6 for integer x: ceil(0.4)=1 > floor(0.6)=0.
				m := lp.NewModel("ir")
				x := m.AddVar(lp.Variable{Name: "x", Lower: 0, Upper: 1, Type: lp.Integer})
				m.AddRow("lo", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 0.4)
				m.AddRow("hi", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 0.6)
				return m
			},
			wantInfeasible: true,
		},
		{
			name: "crossing-bounds-two-rows",
			build: func() *lp.Model {
				// x ≥ 6 and x ≤ 4 tighten [0,10] to an empty interval.
				m := lp.NewModel("cb")
				x := m.AddContinuous("x", 0, 10, 0)
				m.AddRow("ge", []lp.Term{{Var: x, Coef: 1}}, lp.GE, 6)
				m.AddRow("le", []lp.Term{{Var: x, Coef: 1}}, lp.LE, 4)
				return m
			},
			wantInfeasible: true,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			if err := m.Err(); err != nil {
				t.Fatalf("building model: %v", err)
			}
			_, infeasible := presolve(m, 10)
			if infeasible != tt.wantInfeasible {
				t.Fatalf("infeasible = %v, want %v", infeasible, tt.wantInfeasible)
			}
			if tt.check != nil {
				tt.check(t, m)
			}
		})
	}
}

// TestPresolvePreservesOptimum: solving with and without presolve gives
// the same objective on random MILPs.
func TestPresolvePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		m := lp.NewModel("pp")
		nv := 2 + rng.Intn(4)
		for j := 0; j < nv; j++ {
			if rng.Intn(2) == 0 {
				m.AddBinary("", float64(rng.Intn(21)-10))
			} else {
				m.AddVar(lp.Variable{Lower: 0, Upper: float64(1 + rng.Intn(6)),
					Cost: float64(rng.Intn(21) - 10), Type: lp.Integer})
			}
		}
		rows := 1 + rng.Intn(3)
		for r := 0; r < rows; r++ {
			var terms []lp.Term
			for j := 0; j < nv; j++ {
				if c := float64(rng.Intn(9) - 4); c != 0 {
					terms = append(terms, lp.Term{Var: lp.VarID(j), Coef: c})
				}
			}
			m.AddRow("", terms, []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)], float64(rng.Intn(13)-4))
		}
		with, err := Solve(m, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		without, err := Solve(m, &Options{disablePresolve: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if with.Status != without.Status {
			t.Fatalf("trial %d: status %v vs %v", trial, with.Status, without.Status)
		}
		if with.Status == lp.StatusOptimal {
			if math.Abs(with.Objective-without.Objective) > 1e-6*math.Max(1, math.Abs(without.Objective)) {
				t.Fatalf("trial %d: presolve changed optimum %v vs %v", trial, with.Objective, without.Objective)
			}
		}
	}
}

// TestPresolveMixedInfinityRows locks the signed-infinity bookkeeping in
// bound tightening: rows mixing finite and ±Inf bounds must only ever
// tighten bounds in the correct direction (a −Inf lower bound on one
// variable means the others can be compensated without limit, so their
// bounds must not move), and a degenerate infinite fixing must be caught
// as infeasibility, never silently folded into a finite activity sum.
func TestPresolveMixedInfinityRows(t *testing.T) {
	inf := math.Inf(1)
	type bounds struct{ lo, hi float64 }
	cases := []struct {
		name       string
		vars       []bounds
		coefs      []float64
		sense      lp.Sense
		rhs        float64
		wantInfeas bool
		want       []bounds // expected bounds after presolve
	}{
		{
			// x free below and above: x picks up an upper bound from y's
			// minimum, y must stay untouched (x compensates without limit).
			name:  "free-var-gets-upper-others-untouched",
			vars:  []bounds{{-inf, inf}, {0, 1}},
			coefs: []float64{1, 1},
			sense: lp.LE, rhs: 10,
			want: []bounds{{-inf, 10}, {0, 1}},
		},
		{
			// GE row: the free-below variable picks up a lower bound from
			// y's maximum; y's lower bound must not move above its 0.
			name:  "free-below-gets-lower-from-ge",
			vars:  []bounds{{-inf, 5}, {0, 2}},
			coefs: []float64{1, 1},
			sense: lp.GE, rhs: 3,
			want: []bounds{{1, 5}, {0, 2}},
		},
		{
			// Negative coefficient flips which bound is the extreme: −x+y≤4
			// with x free below bounds x from below, not above.
			name:  "negative-coef-flips-direction",
			vars:  []bounds{{-inf, 0}, {0, 10}},
			coefs: []float64{-1, 1},
			sense: lp.LE, rhs: 4,
			want: []bounds{{-4, 0}, {0, 4}},
		},
		{
			// Two free variables: nothing is provable, nothing may move.
			name:  "two-free-vars-no-tightening",
			vars:  []bounds{{-inf, inf}, {-inf, inf}},
			coefs: []float64{1, 1},
			sense: lp.LE, rhs: 5,
			want: []bounds{{-inf, inf}, {-inf, inf}},
		},
		{
			// Equality pins the free variable from both sides via the
			// other's range; the bounded variable stays untouched.
			name:  "equality-pins-free-var-both-sides",
			vars:  []bounds{{-inf, inf}, {0, 3}},
			coefs: []float64{1, 1},
			sense: lp.EQ, rhs: 7,
			want: []bounds{{4, 7}, {0, 3}},
		},
		{
			// A variable degenerately fixed at +Inf forces infinite
			// activity through a ≤ row: provably infeasible, and the +Inf
			// contribution must not be lumped with −Inf ones.
			name:  "fixed-at-plus-inf-is-infeasible",
			vars:  []bounds{{inf, inf}, {0, 1}},
			coefs: []float64{1, 1},
			sense: lp.LE, rhs: 10,
			wantInfeas: true,
		},
		{
			// Same degenerate fixing with a free-below partner: the signs
			// conflict, so nothing is provable — no infeasibility, no
			// tightening in either direction.
			name:  "conflicting-infinite-signs-prove-nothing",
			vars:  []bounds{{inf, inf}, {-inf, 0}},
			coefs: []float64{1, 1},
			sense: lp.LE, rhs: 10,
			want: []bounds{{inf, inf}, {-inf, 0}},
		},
		{
			// One −Inf lower bound among finite rows: the finite variables'
			// bounds must hold still even though minFin alone (ignoring the
			// −Inf term) would justify "tightening" them.
			name:  "minus-inf-lower-blocks-others",
			vars:  []bounds{{-inf, 2}, {0, 5}, {1, 4}},
			coefs: []float64{1, 1, 1},
			sense: lp.LE, rhs: 6,
			want: []bounds{{-inf, 2}, {0, 5}, {1, 4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := lp.NewModel(tc.name)
			for _, b := range tc.vars {
				m.AddContinuous("", b.lo, b.hi, 1)
			}
			var terms []lp.Term
			for i, c := range tc.coefs {
				terms = append(terms, lp.Term{Var: lp.VarID(i), Coef: c})
			}
			m.AddRow("row", terms, tc.sense, tc.rhs)
			if err := m.Err(); err != nil {
				t.Fatalf("model build: %v", err)
			}
			_, infeas := presolve(m, 10)
			if infeas != tc.wantInfeas {
				t.Fatalf("infeasible = %v, want %v", infeas, tc.wantInfeas)
			}
			if tc.wantInfeas {
				return
			}
			for i, want := range tc.want {
				got := m.Var(lp.VarID(i))
				if got.Lower != want.lo || got.Upper != want.hi {
					t.Errorf("var %d bounds = [%v, %v], want [%v, %v]",
						i, got.Lower, got.Upper, want.lo, want.hi)
				}
			}
		})
	}
}
