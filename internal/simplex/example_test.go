package simplex_test

import (
	"context"
	"fmt"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/simplex"
)

// ExampleSolver_SolveFrom shows the warm-start path a branch & bound
// worker uses: solve a parent LP, snapshot its optimal basis, tighten a
// variable bound the way branching does, and re-solve the child from the
// parent basis. The warm solve restores feasibility with dual simplex
// pivots instead of rerunning phase 1, and certifies the same optimum a
// cold solve of the child would.
func ExampleSolver_SolveFrom() {
	m := lp.NewModel("branch-demo")
	x := m.AddContinuous("x", 0, 3, -1)
	y := m.AddContinuous("y", 0, 3, -2)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)

	s := simplex.NewSolver(nil)
	parent, err := s.SolveFrom(context.Background(), m, nil)
	if err != nil {
		panic(err)
	}
	basis := s.Basis()
	fmt.Printf("parent: %s, objective %g\n", parent.Status, parent.Objective)

	// Branch like the MILP layer: force x down to 0 in the child node.
	m.SetBounds(x, 0, 0)
	child, err := s.SolveFrom(context.Background(), m, basis)
	if err != nil {
		panic(err)
	}
	fmt.Printf("child (x ≤ 0): %s, objective %g\n", child.Status, child.Objective)

	// Output:
	// parent: optimal, objective -7
	// child (x ≤ 0): optimal, objective -6
}
