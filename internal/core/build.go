package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/simplex"
	"github.com/etransform/etransform/internal/tol"
)

// groupType is a set of interchangeable application groups: identical in
// every attribute the objective and constraints can see. Aggregating them
// into one integer-count variable per placement is an exact
// reformulation.
type groupType struct {
	rep     *model.AppGroup
	members []int // indices into state.Groups
}

func (t *groupType) count() int { return len(t.members) }

// placeVar is one placement column: count groups of type t at primary a
// (and secondary b when b ≥ 0).
type placeVar struct {
	v    lp.VarID
	t    int
	a, b int
}

// builder assembles the planner's MILP and retains the decode maps.
type builder struct {
	p *Planner
	s *model.AsIsState
	m *lp.Model

	types []groupType
	// memberType[i] is the type index of state.Groups[i].
	memberType []int
	placeVars  []placeVar
	// varOf maps (type, primary, secondary) — secondary −1 when non-DR —
	// to its placement column, for warm-start encoding.
	varOf map[[3]int]lp.VarID
	// gVars[j] is the backup pool variable at DC j (DR only).
	gVars []lp.VarID
	// occTerms[j] accumulates the occupancy expression at DC j: S_t per
	// placement unit with primary j, plus 1·G_j.
	occTerms [][]lp.Term
	// cntTerms[j] accumulates the group-count expression at DC j (for ω).
	cntTerms [][]lp.Term
	// flatSpace[j] records that DC j's space cost is folded into column
	// costs (flat curve) rather than segment variables.
	flatSpace []bool
	// segVars/segWidths/ordVars record DC j's space-segment encoding for
	// warm-start construction (empty for flat-priced DCs).
	segVars   [][]lp.VarID
	segWidths [][]float64
	ordVars   [][]lp.VarID
	// capRows[j] is DC j's capacity row (−1 when the DC has no columns),
	// used for shadow-price extraction.
	capRows []lp.RowID
	// scorer totals the heuristic's assignments (evalTotal), built on
	// first use.
	scorer *model.Scorer

	candidateK int
}

func (p *Planner) build(candidateK int) (*builder, error) {
	b := newBuilder(p, candidateK)
	b.buildTypes()
	if p.opts.DR {
		b.addBackupPools()
	}
	if err := b.addPairPlacements(); err != nil {
		return nil, err
	}
	b.addCapacityRows()
	b.addOmegaRows()
	b.addSharedRiskRows()
	b.addSpaceSegments()
	return b, nil
}

// newBuilder returns a builder with an empty model and per-DC maps,
// before any group types, columns or rows exist.
func newBuilder(p *Planner, candidateK int) *builder {
	s := p.state
	b := &builder{
		p:          p,
		s:          s,
		m:          lp.NewModel(planName(s, &p.opts)),
		candidateK: candidateK,
		occTerms:   make([][]lp.Term, len(s.Target.DCs)),
		cntTerms:   make([][]lp.Term, len(s.Target.DCs)),
		flatSpace:  make([]bool, len(s.Target.DCs)),
		segVars:    make([][]lp.VarID, len(s.Target.DCs)),
		segWidths:  make([][]float64, len(s.Target.DCs)),
		ordVars:    make([][]lp.VarID, len(s.Target.DCs)),
		varOf:      make(map[[3]int]lp.VarID),
	}
	for j := range s.Target.DCs {
		b.flatSpace[j] = s.Target.DCs[j].SpaceCost.IsFlat()
	}
	return b
}

// planName names the model: "<state>-consolidation", or under DR
// "<state>-dr-pair" after the pair-assignment encoding. LP exports and
// traces carry the name.
func planName(s *model.AsIsState, o *Options) string {
	name := s.Name
	if name == "" {
		name = "etransform"
	}
	if o.DR {
		return name + "-dr-pair"
	}
	return name + "-consolidation"
}

// buildTypes groups identical application groups into types, one
// integer-count column per type and placement.
func (b *builder) buildTypes() {
	b.memberType = make([]int, len(b.s.Groups))
	index := make(map[string]int)
	for i := range b.s.Groups {
		g := &b.s.Groups[i]
		key := typeKey(g)
		if ti, ok := index[key]; ok {
			b.types[ti].members = append(b.types[ti].members, i)
			b.memberType[i] = ti
			continue
		}
		index[key] = len(b.types)
		b.memberType[i] = len(b.types)
		b.types = append(b.types, groupType{rep: g, members: []int{i}})
	}
}

// typeKey serializes every attribute of a group that the MILP can
// distinguish. Groups with equal keys are interchangeable.
func typeKey(g *model.AppGroup) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "s=%d|d=%g|u=%v|pin=%s", g.Servers, g.DataMbPerMonth, g.UsersByLocation, g.PinnedDC)
	regions := make([]string, len(g.AllowedRegions))
	for i, r := range g.AllowedRegions {
		regions[i] = string(r)
	}
	sort.Strings(regions)
	forb := append([]string(nil), g.ForbiddenDCs...)
	sort.Strings(forb)
	fmt.Fprintf(&sb, "|reg=%v|forb=%v|risk=%s|pen=%v", regions, forb, g.SharedRiskGroup, g.LatencyPenalty.Steps())
	return sb.String()
}

// feasiblePrimary reports whether group g may run at target DC j.
func (b *builder) feasiblePrimary(g *model.AppGroup, j int) bool {
	dc := &b.s.Target.DCs[j]
	if g.Servers > dc.CapacityServers {
		return false
	}
	if g.PinnedDC != "" && g.PinnedDC != dc.ID {
		return false
	}
	return b.allowedDC(g, j)
}

// feasibleSecondary reports whether DC j may host g's DR failover.
func (b *builder) feasibleSecondary(g *model.AppGroup, j int) bool {
	dc := &b.s.Target.DCs[j]
	if g.Servers > dc.CapacityServers {
		return false
	}
	return b.allowedDC(g, j)
}

func (b *builder) allowedDC(g *model.AppGroup, j int) bool {
	dc := &b.s.Target.DCs[j]
	for _, f := range g.ForbiddenDCs {
		if f == dc.ID {
			return false
		}
	}
	if len(g.AllowedRegions) > 0 {
		ok := false
		for _, r := range g.AllowedRegions {
			if dc.Location.Region == r {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// primaryCost is the per-group monthly cost of running g at DC j,
// excluding tiered space (handled by segment variables): servers × (power
// + labor [+ flat space]), WAN, and the latency penalty L_ij.
func (b *builder) primaryCost(g *model.AppGroup, j int) float64 {
	dc := &b.s.Target.DCs[j]
	c := float64(g.Servers) * model.ServerMonthlyCost(dc, &b.s.Params)
	if b.flatSpace[j] {
		c += float64(g.Servers) * dc.SpaceCost.UnitCostAt(0)
	}
	c += model.WANCostAt(g, &b.s.Target, &b.s.Params, j)
	c += model.LatencyPenaltyAt(g, &b.s.Target, &b.s.Params, j)
	return c
}

// secondaryCost is the cost attributed to choosing DC j as g's DR site:
// the weighted post-failover latency penalty. Backup server space, power,
// labor and capital are carried by the shared pool variables G_j.
func (b *builder) secondaryCost(g *model.AppGroup, j int) float64 {
	w := b.s.Params.SecondaryLatencyWeight
	if tol.IsZero(w) {
		return 0
	}
	return w * model.LatencyPenaltyAt(g, &b.s.Target, &b.s.Params, j)
}

// candidates returns the feasible DC indices for the group under the
// given role, pruned to the K cheapest when pruning is on.
func (b *builder) candidates(g *model.AppGroup, feasible func(*model.AppGroup, int) bool, cost func(*model.AppGroup, int) float64) []int {
	var out []int
	for j := range b.s.Target.DCs {
		if feasible(g, j) {
			out = append(out, j)
		}
	}
	if b.candidateK > 0 && len(out) > b.candidateK {
		sort.SliceStable(out, func(x, y int) bool { return cost(g, out[x]) < cost(g, out[y]) })
		out = out[:b.candidateK]
		sort.Ints(out)
	}
	return out
}

// addBackupPools creates the G_j variables: a shared pool of backup
// servers at DC j, costing ζ capital plus the site's per-server power and
// labor (and flat space where applicable).
func (b *builder) addBackupPools() {
	s := b.s
	b.gVars = make([]lp.VarID, len(s.Target.DCs))
	for j := range s.Target.DCs {
		dc := &s.Target.DCs[j]
		cost := s.Params.DRServerCost + model.ServerMonthlyCost(dc, &s.Params)
		if b.flatSpace[j] {
			cost += dc.SpaceCost.UnitCostAt(0)
		}
		v := b.m.AddVar(lp.Variable{
			Name:  fmt.Sprintf("G_%d", j),
			Lower: 0, Upper: float64(dc.CapacityServers),
			Cost: cost, Type: lp.Continuous,
		})
		b.gVars[j] = v
		b.occTerms[j] = append(b.occTerms[j], lp.Term{Var: v, Coef: 1})
	}
}

// addPairPlacements creates the placement columns for the pair
// formulation (and the plain X_ij columns when DR is off), the
// per-type assignment rows, and the DR pool-sizing rows.
func (b *builder) addPairPlacements() error {
	s := b.s
	dr := b.p.opts.DR
	n := len(s.Target.DCs)
	// poolTerms[a*n+b] accumulates Σ S_t Z_{t,(a,b)} for the pool rows.
	var poolTerms [][]lp.Term
	if dr {
		poolTerms = make([][]lp.Term, n*n)
	}

	for ti := range b.types {
		tp := &b.types[ti]
		g := tp.rep
		prims := b.candidates(g, b.feasiblePrimary, b.primaryCost)
		if len(prims) == 0 {
			return fmt.Errorf("core: group %q has no feasible target data center", g.ID)
		}
		var asg []lp.Term
		if !dr {
			for _, a := range prims {
				v := b.addPlaceVar(ti, a, -1, b.primaryCost(g, a))
				asg = append(asg, lp.Term{Var: v, Coef: 1})
			}
		} else {
			secs := b.candidates(g, b.feasibleSecondary, b.secondaryCost)
			for _, a := range prims {
				for _, sb := range secs {
					if sb == a {
						continue
					}
					v := b.addPlaceVar(ti, a, sb, b.primaryCost(g, a)+b.secondaryCost(g, sb))
					asg = append(asg, lp.Term{Var: v, Coef: 1})
					poolTerms[a*n+sb] = append(poolTerms[a*n+sb],
						lp.Term{Var: v, Coef: float64(g.Servers)})
				}
			}
			if len(asg) == 0 {
				return fmt.Errorf("core: group %q has no feasible (primary, secondary) pair; DR needs two distinct feasible data centers", g.ID)
			}
		}
		b.m.AddRow(fmt.Sprintf("assign_%d", ti), asg, lp.EQ, float64(tp.count()))
	}

	if dr {
		if b.p.opts.DedicatedBackups {
			// Multi-failure planning: pools are additive over all primary
			// sites, G_b ≥ Σ_a Σ_t S_t Z_{t,(a,b)}.
			for sb := 0; sb < n; sb++ {
				var terms []lp.Term
				for a := 0; a < n; a++ {
					terms = append(terms, poolTerms[a*n+sb]...)
				}
				if len(terms) == 0 {
					continue
				}
				terms = append(terms, lp.Term{Var: b.gVars[sb], Coef: -1})
				b.m.AddRow(fmt.Sprintf("pool_%d", sb), terms, lp.LE, 0)
			}
		} else {
			for a := 0; a < n; a++ {
				for sb := 0; sb < n; sb++ {
					terms := poolTerms[a*n+sb]
					if len(terms) == 0 {
						continue
					}
					// G_b ≥ Σ S_t Z_{t,(a,b)}: the pool at b covers the
					// worst single-failure demand routed from a.
					terms = append(terms, lp.Term{Var: b.gVars[sb], Coef: -1})
					b.m.AddRow(fmt.Sprintf("pool_%d_%d", a, sb), terms, lp.LE, 0)
				}
			}
		}
	}
	return nil
}

// requiredBackups sizes the pools for a concrete assignment under the
// planner's sharing mode.
func (b *builder) requiredBackups(placement, secondary []int) []int {
	if b.p.opts.DedicatedBackups {
		return model.RequiredBackupsDedicated(b.s, len(b.s.Target.DCs), placement, secondary)
	}
	return model.RequiredBackups(b.s, len(b.s.Target.DCs), placement, secondary)
}

// addPlaceVar creates one placement column and registers its occupancy
// and group-count contributions at the primary DC.
func (b *builder) addPlaceVar(ti, a, sec int, cost float64) lp.VarID {
	tp := &b.types[ti]
	var v lp.VarID
	var name string
	if sec >= 0 {
		name = fmt.Sprintf("z_%d_%d_%d", ti, a, sec)
	} else {
		name = fmt.Sprintf("x_%d_%d", ti, a)
	}
	if tp.count() == 1 {
		v = b.m.AddBinary(name, cost)
	} else {
		v = b.m.AddVar(lp.Variable{
			Name: name, Lower: 0, Upper: float64(tp.count()),
			Cost: cost, Type: lp.Integer,
		})
	}
	b.placeVars = append(b.placeVars, placeVar{v: v, t: ti, a: a, b: sec})
	b.varOf[[3]int{ti, a, sec}] = v
	b.occTerms[a] = append(b.occTerms[a], lp.Term{Var: v, Coef: float64(tp.rep.Servers)})
	b.cntTerms[a] = append(b.cntTerms[a], lp.Term{Var: v, Coef: 1})
	return v
}

// addCapacityRows enforces Σ_i S_i X_ij + G_j ≤ O_j at every target DC.
func (b *builder) addCapacityRows() {
	b.capRows = make([]lp.RowID, len(b.s.Target.DCs))
	for j := range b.s.Target.DCs {
		b.capRows[j] = -1
		if len(b.occTerms[j]) == 0 {
			continue
		}
		b.capRows[j] = b.m.AddRow(fmt.Sprintf("cap_%d", j), b.occTerms[j], lp.LE,
			float64(b.s.Target.DCs[j].CapacityServers))
	}
}

// addSharedRiskRows enforces the shared-risk constraint (§I): groups in
// the same risk domain must have pairwise different primary sites, so no
// single failure takes out more than one of them.
func (b *builder) addSharedRiskRows() {
	n := len(b.s.Target.DCs)
	terms := make(map[string][][]lp.Term)
	for _, pv := range b.placeVars {
		label := b.types[pv.t].rep.SharedRiskGroup
		if label == "" {
			continue
		}
		rows, ok := terms[label]
		if !ok {
			rows = make([][]lp.Term, n)
			terms[label] = rows
		}
		rows[pv.a] = append(rows[pv.a], lp.Term{Var: pv.v, Coef: 1})
	}
	labels := make([]string, 0, len(terms))
	for label := range terms {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		for j, row := range terms[label] {
			if len(row) == 0 {
				continue
			}
			b.m.AddRow(fmt.Sprintf("risk_%s_%d", label, j), row, lp.LE, 1)
		}
	}
}

// addOmegaRows enforces the business-impact cap: no DC hosts more than
// ω·M application groups (§IV-B).
func (b *builder) addOmegaRows() {
	omega := b.p.opts.Omega
	if omega <= 0 || omega >= 1 {
		return
	}
	limit := omega * float64(len(b.s.Groups))
	for j := range b.s.Target.DCs {
		if len(b.cntTerms[j]) == 0 {
			continue
		}
		b.m.AddRow(fmt.Sprintf("omega_%d", j), b.cntTerms[j], lp.LE, limit)
	}
}

// addSpaceSegments encodes tiered space pricing at every DC with a
// non-flat curve: occupancy = Σ_k u_jk with per-segment unit costs, plus
// fill-order binaries for non-convex (economies-of-scale) curves,
// following Schoomer's step-function incorporation (§III-B).
//
// The segments cover [0, min(O_j, S)], where S is the estate's total
// servers, not the whole capacity O_j. Occupancy at j is the primaries
// at j plus the pool at j, and the pool backs only groups whose primary
// is elsewhere: it is the max over primary sites of their demand routed
// to j when pools are shared, and the sum when they are dedicated.
// Either way each group counts at most once at j, so occupancy ≤ S at
// every minimum-pool point. Any encoding of the curve relaxes to its
// lower convex envelope over the domain, so shrinking the domain is
// what keeps the LP from pricing space at a discount no plan reaches.
func (b *builder) addSpaceSegments() {
	total := 0
	for i := range b.s.Groups {
		total += b.s.Groups[i].Servers
	}
	for j := range b.s.Target.DCs {
		if b.flatSpace[j] || len(b.occTerms[j]) == 0 {
			continue
		}
		dc := &b.s.Target.DCs[j]
		segs := dc.SpaceCost.SegmentsUpTo(float64(min(dc.CapacityServers, total)))
		if len(segs) == 0 {
			continue
		}
		needOrder := !dc.SpaceCost.IsConvex()
		us := make([]lp.VarID, len(segs))
		widths := make([]float64, len(segs))
		for k, seg := range segs {
			us[k] = b.m.AddContinuous(fmt.Sprintf("u_%d_%d", j, k), 0, seg.Width, seg.UnitCost)
			widths[k] = seg.Width
		}
		b.segVars[j] = us
		b.segWidths[j] = widths
		// occupancy − Σ u = 0.
		terms := append([]lp.Term(nil), b.occTerms[j]...)
		for _, u := range us {
			terms = append(terms, lp.Term{Var: u, Coef: -1})
		}
		b.m.AddRow(fmt.Sprintf("space_%d", j), terms, lp.EQ, 0)
		if !needOrder {
			continue
		}
		for k := 1; k < len(segs); k++ {
			ord := b.m.AddBinary(fmt.Sprintf("ord_%d_%d", j, k), 0)
			b.ordVars[j] = append(b.ordVars[j], ord)
			// Segment k usable only when ord=1…
			b.m.AddRow(fmt.Sprintf("ordu_%d_%d", j, k),
				[]lp.Term{{Var: us[k], Coef: 1}, {Var: ord, Coef: -segs[k].Width}}, lp.LE, 0)
			// …and ord=1 forces segment k−1 full.
			b.m.AddRow(fmt.Sprintf("ordf_%d_%d", j, k),
				[]lp.Term{{Var: us[k-1], Coef: 1}, {Var: ord, Coef: -segs[k-1].Width}}, lp.GE, 0)
		}
	}
}

// decode converts a MILP solution into a Plan scored by the shared
// evaluator, with a self-check that the LP objective matches.
func (b *builder) decode(sol *lp.Solution) (*model.Plan, error) {
	if !sol.Status.HasSolution() {
		return nil, fmt.Errorf("core: internal: decode called on %v solution", sol.Status)
	}
	s := b.s
	dr := b.p.opts.DR
	placement := make([]int, len(s.Groups))
	for i := range placement {
		placement[i] = -1
	}
	var secondary []int
	if dr {
		secondary = make([]int, len(s.Groups))
		for i := range secondary {
			secondary[i] = -1
		}
	}

	// Distribute each type's placement counts over its members.
	next := make([]int, len(b.types))
	for _, pv := range b.placeVars {
		cnt := int(math.Round(sol.Value(pv.v)))
		for c := 0; c < cnt; c++ {
			tp := &b.types[pv.t]
			if next[pv.t] >= len(tp.members) {
				return nil, fmt.Errorf("core: internal: type %d over-assigned", pv.t)
			}
			gi := tp.members[next[pv.t]]
			next[pv.t]++
			placement[gi] = pv.a
			if dr {
				secondary[gi] = pv.b
			}
		}
	}
	for i, j := range placement {
		if j < 0 {
			return nil, fmt.Errorf("core: internal: group %q left unplaced in decode", s.Groups[i].ID)
		}
	}
	var backups []int
	if dr {
		for i, j := range secondary {
			if j < 0 {
				return nil, fmt.Errorf("core: internal: group %q has no secondary in decode", s.Groups[i].ID)
			}
		}
		backups = b.requiredBackups(placement, secondary)
	}

	bd, err := model.Evaluate(s, &s.Target, placement, secondary, backups)
	if err != nil {
		return nil, fmt.Errorf("core: internal: decoded plan fails evaluation: %w", err)
	}
	if err := model.CheckObjectiveMatches(sol.Objective, bd.Total(), tol.Objective); err != nil {
		return nil, fmt.Errorf("core: internal: %w", err)
	}

	var shadow map[string]float64
	if b.p.opts.ComputeShadowPrices {
		var err error
		shadow, err = b.shadowPrices()
		if err != nil {
			return nil, fmt.Errorf("core: shadow prices: %w", err)
		}
	}

	plan := &model.Plan{
		Assignments:    make([]model.Assignment, len(s.Groups)),
		Cost:           bd,
		CapacityShadow: shadow,
		Stats: model.SolveStats{
			Rows:        b.m.NumRows(),
			Cols:        b.m.NumVars(),
			Integral:    b.m.NumIntegral(),
			Nonzeros:    b.m.NumNonzeros(),
			Iterations:  sol.Iterations,
			Nodes:       sol.Nodes,
			Gap:         lp.JSONSafeGap(sol.Gap),
			CandidatesK: b.candidateK,
			Aggregated:  true,

			Workers:        sol.Workers,
			PeakQueueDepth: sol.PeakQueueDepth,
			WallMillis:     sol.WallTime.Milliseconds(),
			WorkMillis:     sol.WorkTime.Milliseconds(),
		},
	}
	if dr {
		plan.Stats.Formulation = "pair"
		plan.BackupServers = make(map[string]int)
		for j, n := range backups {
			if n > 0 {
				plan.BackupServers[s.Target.DCs[j].ID] = n
			}
		}
	}
	for i := range s.Groups {
		a := model.Assignment{GroupID: s.Groups[i].ID, PrimaryDC: s.Target.DCs[placement[i]].ID}
		if dr {
			a.SecondaryDC = s.Target.DCs[secondary[i]].ID
		}
		plan.Assignments[i] = a
	}
	return plan, nil
}

// shadowPrices solves the model's LP relaxation and reads the capacity
// rows' dual values: the marginal monthly value of one more server slot
// at each site. Fixing the integer decisions instead would make every
// capacity row's activity constant and its dual degenerate, so the
// standard MILP practice of quoting relaxation duals applies — they are
// directional guidance ("expand here first"), not exact marginal costs
// of the integral plan. LE capacity rows have non-positive duals; the
// returned map negates them so a positive value means expansion value.
func (b *builder) shadowPrices() (map[string]float64, error) {
	lpSol, err := simplex.Solve(b.m.Relax(), nil)
	if err != nil {
		return nil, err
	}
	if lpSol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("relaxation not optimal: %v", lpSol.Status)
	}
	out := make(map[string]float64, len(b.capRows))
	for j, row := range b.capRows {
		if row < 0 {
			continue
		}
		if v := -lpSol.DualValues[row]; tol.Pos(v, tol.Shadow) {
			out[b.s.Target.DCs[j].ID] = v
		}
	}
	return out, nil
}
