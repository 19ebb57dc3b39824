package milp

import (
	"context"
	"fmt"
	"math"

	"github.com/etransform/etransform/internal/certify"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp/cuts"
	"github.com/etransform/etransform/internal/tol"
)

// buildStash collects the known integer-feasible points every accepted
// cut must preserve: each feasible caller-supplied warm start (the
// planner passes the greedy baseline plan this way) and the current
// incumbent, with integer variables snapped exactly.
func (c *coordinator) buildStash() {
	add := func(x []float64) {
		if len(x) != c.model.NumVars() {
			return
		}
		snapped := make([]float64, len(x))
		copy(snapped, x)
		for _, v := range c.intVars {
			snapped[v] = math.Round(snapped[v])
		}
		if c.model.CheckFeasible(snapped, tol.Accept) != nil {
			return
		}
		c.stash = append(c.stash, snapped)
	}
	for _, ws := range c.opts.WarmStarts {
		add(ws)
	}
	c.mu.Lock()
	inc := c.incumbent
	c.mu.Unlock()
	if inc != nil {
		add(inc)
	}
}

// rootGapOpen reports whether the root LP bound leaves the incumbent
// outside GapTol: the test that prunes a tree node. Once it fails the
// tree would prune the root's children anyway, so a tighter bound buys
// nothing.
func (c *coordinator) rootGapOpen(bound float64) bool {
	incObj, haveInc := c.snapshotIncumbent()
	return !haveInc || bound < incObj-c.pruneEps(incObj)
}

// rootCuts runs cutting-plane rounds at the root: separate Gomory
// mixed-integer cuts from the optimal tableau and cover cuts from the
// knapsack rows, screen them, verify every survivor against the stash
// of known integer-feasible points, append the batch to w0's working
// model, and re-solve through the warm-start path — the previous basis
// extended by one slack per new row stays dual feasible ([B 0; C I] is
// block lower triangular with zero-cost slacks), so each re-solve is a
// handful of dual pivots, not a fresh solve from the slack basis.
//
// After the rounds, cuts the pool retired (slack for MaxAge consecutive
// re-solves) are dropped and the survivors become c.cutModel, the model
// every tree worker relaxes. w0 re-solves that model from the last
// round's basis with the retired rows dropped (Basis.DropRows), and the
// re-solve is the returned root solution, so the root basis fits the
// tree model and the root's children and dive start warm.
//
// A round, the first included, starts only while rootGapOpen holds, so
// a root the warm starts already close separates nothing and builds no
// stash; the bound rises with each round and the loop stops as soon as
// it reaches the incumbent.
//
// A mid-round failure (deadline expiry inside a re-solve, or a
// numerically sick cut LP) rolls the offending batch back and stops
// cutting; the search proceeds from the last good round. A cut that
// eliminates a stashed feasible point is different — that is a
// separation bug, returned as a hard error so the planner's fallback
// pipeline takes over rather than silently searching a mutilated tree.
func (c *coordinator) rootCuts(w0 *worker, root *lp.Solution) (*lp.Solution, error) {
	o := cuts.Options{}.WithDefaults(c.model.NumVars())
	isInt := make([]bool, c.model.NumVars())
	for _, v := range c.intVars {
		isInt[v] = true
	}
	pool := cuts.NewPool()
	cur := root
	for round := 0; round < cuts.MaxRounds; round++ {
		if c.expired() || c.ctx.Err() != nil || !c.rootGapOpen(cur.Objective) {
			break
		}
		if v, _ := c.mostFractional(cur.X); v < 0 {
			break // the cut LP optimum is already integral
		}
		if round == 0 {
			c.buildStash()
		}
		var cand []cuts.Cut
		if view := w0.sx.TableauView(); view != nil {
			cand = cuts.SeparateGomory(w0.work, isInt, view, &o)
		}
		cand = append(cand, cuts.SeparateCovers(w0.work, isInt, cur.X, &o)...)
		cand = cuts.SelectBest(cand, cuts.MaxPerRound)

		prev := w0.work
		next := prev.Clone()
		added := 0
		for _, ct := range cand {
			if !pool.Add(ct) {
				continue // an equivalent cut is already applied
			}
			if err := certify.CheckCut(ct.Row(), c.stash, nil); err != nil {
				return nil, fmt.Errorf("milp: root cut round %d: %w", round+1, err)
			}
			next.AddRow(ct.Name, ct.Terms, ct.Sense, ct.RHS)
			added++
		}
		if added == 0 {
			break
		}
		if err := next.Err(); err != nil {
			return nil, fmt.Errorf("milp: appending root cuts: %w", err)
		}
		basis := w0.sx.Basis().ExtendRows(added)
		sol, err := w0.sx.SolveFrom(context.Background(), next, basis)
		if err != nil {
			return nil, err
		}
		w0.iterations += sol.Iterations
		if sol.Status != lp.StatusOptimal || !finiteSolution(sol) {
			// Deadline mid-round or a numerically sick cut LP (a valid-cut
			// LP can only be infeasible if the MILP itself is, but we do
			// not act on that inference from freshly generated rows): roll
			// the batch back and keep the last good round's model/solution.
			pool.DropLast(added)
			w0.work = prev
			break
		}
		c.cutsSeparated += int64(added)
		w0.work = next
		cur = sol
		pool.Observe(cur.X, cuts.MaxAge)
	}

	active := pool.Active()
	c.cutsActive = int64(len(active))
	tree := c.model
	if len(active) > 0 {
		cm := c.model.Clone()
		for _, ct := range active {
			cm.AddRow(ct.Name, ct.Terms, ct.Sense, ct.RHS)
		}
		if err := cm.Err(); err != nil {
			return nil, fmt.Errorf("milp: building cut model: %w", err)
		}
		c.cutModel = cm
		tree = cm
	}
	if retired := pool.Retired(); len(retired) > 0 {
		// Align w0's working model with what the tree workers will see,
		// and re-solve it from the root basis without the retired rows
		// (pool position k is row NumRows()+k of w0.work). Their slacks
		// are basic, so the trimmed basis is still optimal and the
		// re-solve takes no pivots; its basis then fits the model the
		// root children and the dive solve.
		rows := make([]int, len(retired))
		for i, k := range retired {
			rows[i] = c.model.NumRows() + k
		}
		basis := w0.sx.Basis().DropRows(rows)
		w0.work = tree.Relax()
		sol, err := w0.sx.SolveFrom(context.Background(), w0.work, basis)
		if err != nil {
			return nil, err
		}
		w0.iterations += sol.Iterations
		if sol.Status == lp.StatusOptimal && finiteSolution(sol) {
			cur = sol
		}
	}
	return cur, nil
}
