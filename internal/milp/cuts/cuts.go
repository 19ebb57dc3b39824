// Package cuts implements root-node cutting-plane separation for the
// branch & bound solver: Gomory mixed-integer (GMI) cuts read back from
// the optimal simplex tableau, and knapsack-cover cuts separated
// combinatorially from the model's 0/1 capacity rows.
//
// A cut is a linear inequality satisfied by every integer-feasible
// point of the model but violated by the current LP-relaxation optimum;
// appending it to the relaxation tightens the dual bound without
// excluding any solution. Cut separation is the most bug-prone code a
// MILP solver grows — a single sign error silently deletes the optimum
// — so this package is paired with defenses at three layers:
//
//   - the validity property suite (validity_test.go) enumerates every
//     integer-feasible point of hundreds of seeded random MILPs and
//     asserts no separated cut eliminates any, with the GMI derivation
//     re-run in exact rational arithmetic (math/big) and compared to
//     the float path;
//   - the fuzz targets (FuzzGomoryRow, FuzzCoverSeparation) drive the
//     separators with malformed rows, near-integral bases and ±Inf
//     bounds;
//   - at run time, package milp re-verifies every accepted cut against
//     a stash of known integer-feasible points through internal/certify
//     — a cut that eliminates one is a hard solver error, never a
//     warning.
//
// The package itself is purely functional: separators take a model and
// a tableau view or point and return candidate cuts; the cut pool ages
// and retires them; the caller (package milp) owns the loop, the LP
// re-solves and the safety checks.
package cuts

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/tol"
)

// Limits of the cut loop and the cut screen.
const (
	// MaxRounds caps separation rounds at the root.
	MaxRounds = 8
	// MaxPerRound caps cuts accepted per round (the most violated win).
	MaxPerRound = 32
	// MaxAge is how many consecutive rounds a pooled cut may stay slack
	// (non-binding at the re-solved LP optimum) before the pool retires
	// it; retired cuts are dropped from the model handed to the tree
	// search.
	MaxAge = 3
	// maxDynamism is the largest allowed ratio max|coef|/min|coef| over a
	// cut's nonzero coefficients; beyond it the cut is numerically
	// untrustworthy and is discarded.
	maxDynamism = 1e7
)

// Options are the separators' screens. Only WithDefaults sets them in
// production; the validity suite loosens minViolation and minFrac to
// push more candidates through the exact-arithmetic checks.
type Options struct {
	// minViolation is the minimum normalized violation (violation over
	// the cut's coefficient 2-norm) a candidate must achieve at the
	// separating LP point. Default tol.CutViolation.
	minViolation float64
	// minFrac is the minimum distance from integrality the fractional
	// basic variable (and the GMI row fraction f0) must have; rows closer
	// to integral than this produce numerically fragile cuts. Default 5e-3.
	minFrac float64
	// maxDensity caps a cut's nonzero count: max(100, n/2) for a model
	// of n variables.
	maxDensity int
}

// WithDefaults returns o with defaults applied for a model of n
// variables.
func (o Options) WithDefaults(n int) Options {
	if o.minViolation <= 0 {
		o.minViolation = tol.CutViolation
	}
	if o.minFrac <= 0 {
		o.minFrac = 5e-3
	}
	o.maxDensity = max(100, n/2)
	return o
}

// Cut is one separated inequality over the model's structural
// variables: Terms (Sense) RHS. Kind records the separator that
// produced it, Violation its normalized violation at the LP point it
// was separated from (used for ranking).
type Cut struct {
	Name      string
	Terms     []lp.Term
	Sense     lp.Sense
	RHS       float64
	Kind      string
	Violation float64
}

// Row converts the cut to an lp.Row for feasibility checking.
func (c *Cut) Row() lp.Row {
	return lp.Row{Name: c.Name, Terms: c.Terms, Sense: c.Sense, RHS: c.RHS}
}

// Activity evaluates the cut's left-hand side at x.
func (c *Cut) Activity(x []float64) float64 {
	a := 0.0
	for _, t := range c.Terms {
		a += t.Coef * x[t.Var]
	}
	return a
}

// violationAt returns by how much x violates the cut (0 when satisfied).
func (c *Cut) violationAt(x []float64) float64 {
	a := c.Activity(x)
	switch c.Sense {
	case lp.GE:
		if v := c.RHS - a; v > 0 {
			return v
		}
	case lp.LE:
		if v := a - c.RHS; v > 0 {
			return v
		}
	}
	return 0
}

// norm2 is the 2-norm of the cut's coefficients.
func (c *Cut) norm2() float64 {
	s := 0.0
	for _, t := range c.Terms {
		s += t.Coef * t.Coef
	}
	return math.Sqrt(s)
}

// signature is a dedup key: the cut's sense, RHS and coefficient
// pattern quantized to 9 significant digits, over terms sorted by
// variable. Two separations of the same inequality (e.g. the same
// cover rediscovered next round) collide here.
func (c *Cut) signature() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%.9g", int(c.Sense), c.RHS)
	for _, t := range c.Terms {
		fmt.Fprintf(&sb, "|%d:%.9g", int(t.Var), t.Coef)
	}
	return sb.String()
}

// finish normalizes and screens a candidate cut: terms are sorted by
// variable, the cut is scaled so its largest |coefficient| is 1 (a
// positive scaling preserves validity and sense), and the density,
// dynamism and minimum-violation filters are applied against the
// separating point x. ok=false means the cut was filtered out.
func (c *Cut) finish(x []float64, o *Options) bool {
	if len(c.Terms) == 0 || len(c.Terms) > o.maxDensity {
		return false
	}
	sort.Slice(c.Terms, func(i, j int) bool { return c.Terms[i].Var < c.Terms[j].Var })
	maxC, minC := 0.0, math.Inf(1)
	for _, t := range c.Terms {
		a := math.Abs(t.Coef)
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return false
		}
		if a > maxC {
			maxC = a
		}
		if a < minC {
			minC = a
		}
	}
	if !tol.Pos(maxC, 0) || math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return false
	}
	if maxC/minC > maxDynamism {
		return false
	}
	scale := 1 / maxC
	for i := range c.Terms {
		c.Terms[i].Coef *= scale
	}
	c.RHS *= scale
	if math.IsInf(c.RHS, 0) || math.IsNaN(c.RHS) {
		return false
	}
	n := c.norm2()
	if !tol.Pos(n, 0) {
		return false
	}
	c.Violation = c.violationAt(x) / n
	return c.Violation >= o.minViolation
}

// SelectBest ranks candidates by normalized violation (descending,
// name tie-break for determinism) and returns at most k.
func SelectBest(cands []Cut, k int) []Cut {
	sort.SliceStable(cands, func(i, j int) bool {
		if !tol.Same(cands[i].Violation, cands[j].Violation) {
			return cands[i].Violation > cands[j].Violation
		}
		return cands[i].Name < cands[j].Name
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// pooled is one pool entry with its aging state.
type pooled struct {
	cut     Cut
	age     int
	retired bool
}

// Pool holds accepted cuts across separation rounds, deduplicates
// re-separated inequalities, and retires cuts that stay slack: a cut
// that is not binding at the re-solved LP optimum for MaxAge
// consecutive rounds has stopped pulling the relaxation anywhere and
// only taxes every node LP that carries it.
type Pool struct {
	cuts []pooled
	seen map[string]bool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{seen: make(map[string]bool)}
}

// Add accepts c unless an equivalent cut (same signature) was already
// pooled; it reports whether the cut was added.
func (p *Pool) Add(c Cut) bool {
	sig := c.signature()
	if p.seen[sig] {
		return false
	}
	p.seen[sig] = true
	p.cuts = append(p.cuts, pooled{cut: c})
	return true
}

// DropLast removes the k most recently added cuts and their dedup
// signatures. The caller uses it to roll back a batch whose LP
// re-solve failed: those cuts never made it into a solved model, so
// they must not count as applied (and may be re-separated later).
func (p *Pool) DropLast(k int) {
	for k > 0 && len(p.cuts) > 0 {
		e := &p.cuts[len(p.cuts)-1]
		delete(p.seen, e.cut.signature())
		p.cuts = p.cuts[:len(p.cuts)-1]
		k--
	}
}

// Observe updates the aging state of every live cut against the LP
// optimum x of the current round: a binding (or violated) cut resets
// its age, a slack one ages by one round and retires past maxAge.
func (p *Pool) Observe(x []float64, maxAge int) {
	for i := range p.cuts {
		e := &p.cuts[i]
		if e.retired {
			continue
		}
		act := e.cut.Activity(x)
		eps := tol.Feas * math.Max(1, math.Abs(e.cut.RHS))
		binding := false
		switch e.cut.Sense {
		case lp.GE:
			binding = act <= e.cut.RHS+eps
		case lp.LE:
			binding = act >= e.cut.RHS-eps
		}
		if binding {
			e.age = 0
			continue
		}
		e.age++
		if e.age > maxAge {
			e.retired = true
		}
	}
}

// Active returns the live (non-retired) cuts in pool order.
func (p *Pool) Active() []Cut {
	out := make([]Cut, 0, len(p.cuts))
	for i := range p.cuts {
		if !p.cuts[i].retired {
			out = append(out, p.cuts[i].cut)
		}
	}
	return out
}

// Len returns the total number of cuts ever pooled.
func (p *Pool) Len() int { return len(p.cuts) }

// Retired counts retired cuts.
func (p *Pool) Retired() int {
	n := 0
	for i := range p.cuts {
		if p.cuts[i].retired {
			n++
		}
	}
	return n
}
