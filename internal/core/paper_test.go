package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/tol"
)

// This file keeps the paper's literal §IV-B DR encoding as a test
// reference. The planner plans DR with the pair formulation: one column
// per group and ordered (primary, secondary) pair, and M + N + N² + N
// rows. The paper links the primary and secondary choices with
// J_abc ≥ X_ca + Y_cb − 1, which needs M·N² rows. The reference exists
// to show that both encodings have the same optimum.

// paperOptimum builds the §IV-B model of s, with shared single-failure
// pools, over one singleton type per group. Apart from the placement
// columns it uses the planner's own row builders: backup pools,
// capacity, ω, shared risk and space segments. It solves the model at
// GapTol 1e-12, decodes X and Y, and returns the model.Evaluate cost of
// that plan, which must match the MILP objective.
func paperOptimum(t *testing.T, s *model.AsIsState) float64 {
	t.Helper()
	b := newBuilder(&Planner{state: s, opts: Options{DR: true}}, 0)
	b.memberType = make([]int, len(s.Groups))
	for i := range s.Groups {
		b.types = append(b.types, groupType{rep: &s.Groups[i], members: []int{i}})
		b.memberType[i] = i
	}
	b.addBackupPools()
	ys, err := b.addPaperPlacements()
	if err != nil {
		t.Fatal(err)
	}
	b.addCapacityRows()
	b.addOmegaRows()
	b.addSharedRiskRows()
	b.addSpaceSegments()

	sol, err := milp.Solve(b.m, &milp.Options{GapTol: 1e-12, Workers: 1})
	if err != nil {
		t.Fatalf("paper encoding: %v", err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("paper encoding: status %v, want optimal", sol.Status)
	}
	placement := make([]int, len(s.Groups))
	secondary := make([]int, len(s.Groups))
	for i := range s.Groups {
		placement[i], secondary[i] = -1, -1
	}
	for _, pv := range b.placeVars {
		if int(math.Round(sol.Value(pv.v))) == 1 {
			placement[pv.t] = pv.a
		}
	}
	for _, yv := range ys {
		if int(math.Round(sol.Value(yv.v))) == 1 {
			secondary[yv.t] = yv.b
		}
	}
	for i := range s.Groups {
		if placement[i] < 0 || secondary[i] < 0 {
			t.Fatalf("paper encoding: group %q decoded to primary %d, secondary %d", s.Groups[i].ID, placement[i], secondary[i])
		}
	}
	bd, err := model.Evaluate(s, &s.Target, placement, secondary, b.requiredBackups(placement, secondary))
	if err != nil {
		t.Fatalf("paper encoding: decoded plan fails evaluation: %v", err)
	}
	if err := model.CheckObjectiveMatches(sol.Objective, bd.Total(), tol.Objective); err != nil {
		t.Fatalf("paper encoding: %v", err)
	}
	return bd.Total()
}

// addPaperPlacements creates the paper's §IV-B DR encoding: X_ij and Y_ij
// binaries, continuous J linking variables, and the G_b ≥ Σ_c J_abc S_c
// pool rows. The X columns are registered as placement columns; the Y
// columns are returned.
func (b *builder) addPaperPlacements() (ys []placeVar, err error) {
	s := b.s
	n := len(s.Target.DCs)
	type xy struct{ x, y []lp.VarID } // per group: index by DC, -1 absent
	cols := make([]xy, len(b.types))

	for ti := range b.types {
		g := b.types[ti].rep
		prims := b.candidates(g, b.feasiblePrimary, b.primaryCost)
		secs := b.candidates(g, b.feasibleSecondary, b.secondaryCost)
		if len(prims) == 0 {
			return nil, fmt.Errorf("core: group %q has no feasible target data center", g.ID)
		}
		xs := make([]lp.VarID, n)
		yv := make([]lp.VarID, n)
		for j := range xs {
			xs[j], yv[j] = -1, -1
		}
		var xasg, yasg []lp.Term
		for _, a := range prims {
			v := b.addPlaceVar(ti, a, -1, b.primaryCost(g, a))
			xs[a] = v
			xasg = append(xasg, lp.Term{Var: v, Coef: 1})
		}
		for _, j := range secs {
			v := b.m.AddBinary(fmt.Sprintf("y_%d_%d", ti, j), b.secondaryCost(g, j))
			yv[j] = v
			yasg = append(yasg, lp.Term{Var: v, Coef: 1})
			ys = append(ys, placeVar{v: v, t: ti, a: -1, b: j})
		}
		if len(yasg) == 0 {
			return nil, fmt.Errorf("core: group %q has no feasible secondary data center", g.ID)
		}
		b.m.AddRow(fmt.Sprintf("assign_%d", ti), xasg, lp.EQ, 1)
		b.m.AddRow(fmt.Sprintf("assign_sec_%d", ti), yasg, lp.EQ, 1)
		// X_ij + Y_ij ≤ 1: primary and secondary must differ (the paper's
		// X_ij + Y_ij < 2 over binaries).
		for j := 0; j < n; j++ {
			if xs[j] >= 0 && yv[j] >= 0 {
				b.m.AddRow(fmt.Sprintf("disjoint_%d_%d", ti, j),
					[]lp.Term{{Var: xs[j], Coef: 1}, {Var: yv[j], Coef: 1}}, lp.LE, 1)
			}
		}
		cols[ti] = xy{x: xs, y: yv}
	}

	// J_cab ≥ X_ca + Y_cb − 1, continuous in [0,1]: exact at binary X, Y
	// because the pool rows only press J upward.
	poolTerms := make([][]lp.Term, n*n)
	for ti := range b.types {
		g := b.types[ti].rep
		for a := 0; a < n; a++ {
			if cols[ti].x[a] < 0 {
				continue
			}
			for sb := 0; sb < n; sb++ {
				if sb == a || cols[ti].y[sb] < 0 {
					continue
				}
				j := b.m.AddContinuous(fmt.Sprintf("j_%d_%d_%d", ti, a, sb), 0, 1, 0)
				b.m.AddRow(fmt.Sprintf("link_%d_%d_%d", ti, a, sb),
					[]lp.Term{{Var: cols[ti].x[a], Coef: 1}, {Var: cols[ti].y[sb], Coef: 1}, {Var: j, Coef: -1}},
					lp.LE, 1)
				poolTerms[a*n+sb] = append(poolTerms[a*n+sb], lp.Term{Var: j, Coef: float64(g.Servers)})
			}
		}
	}
	for a := 0; a < n; a++ {
		for sb := 0; sb < n; sb++ {
			terms := poolTerms[a*n+sb]
			if len(terms) == 0 {
				continue
			}
			terms = append(terms, lp.Term{Var: b.gVars[sb], Coef: -1})
			b.m.AddRow(fmt.Sprintf("pool_%d_%d", a, sb), terms, lp.LE, 0)
		}
	}
	return ys, nil
}

// TestPairVsPaperFormulationEquivalent shows on random instances that
// the planner's pair formulation and the paper's literal J-linearization
// have optima of equal cost.
func TestPairVsPaperFormulationEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		s := randomState(rng, 3+rng.Intn(3), 3, 2, true)
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		a := solvePlan(t, s, Options{DR: true}).Cost.Total()
		b := paperOptimum(t, s)
		if math.Abs(a-b) > 1e-4*math.Max(1, math.Max(a, b)) {
			t.Fatalf("trial %d: pair %v vs paper %v", trial, a, b)
		}
	}
}
