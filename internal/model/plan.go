package model

import (
	"fmt"
	"math"
	"sort"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
)

// Assignment places one application group: a primary data center and,
// under disaster-recovery planning, a secondary one.
type Assignment struct {
	GroupID string `json:"group_id"`
	// PrimaryDC is the target data center the group runs in.
	PrimaryDC string `json:"primary_dc"`
	// SecondaryDC is the DR failover site; empty when DR is not planned.
	SecondaryDC string `json:"secondary_dc,omitempty"`
}

// DCCost is the cost breakdown of one data center in a plan, in monthly
// dollars (backup server purchases are one-time and reported separately).
type DCCost struct {
	Servers       int     `json:"servers"`
	BackupServers int     `json:"backup_servers"`
	Space         float64 `json:"space"`
	Power         float64 `json:"power"`
	Labor         float64 `json:"labor"`
	WAN           float64 `json:"wan"`
	Latency       float64 `json:"latency_penalty"`
	BackupCapital float64 `json:"backup_capital"`
}

// Total returns the all-in cost of the data center.
func (c DCCost) Total() float64 {
	return c.Space + c.Power + c.Labor + c.WAN + c.Latency + c.BackupCapital
}

// CostBreakdown aggregates the cost of an entire plan.
type CostBreakdown struct {
	Space         float64 `json:"space"`
	Power         float64 `json:"power"`
	Labor         float64 `json:"labor"`
	WAN           float64 `json:"wan"`
	Latency       float64 `json:"latency_penalty"`
	BackupCapital float64 `json:"backup_capital"`
	// PerDC maps data center ID to its share. Only DCs that host servers
	// or backups appear.
	PerDC map[string]DCCost `json:"per_dc"`
	// LatencyViolations counts placements (primary, plus secondary when
	// DR is planned) whose average latency triggers a non-zero penalty —
	// the quantity reported in the paper's Tables 4(e) and 6(e).
	LatencyViolations int `json:"latency_violations"`
	// SharedRiskViolations counts co-located pairs of groups that share a
	// risk domain (SharedRiskGroup): plans from the LP planner always
	// score 0; manual plans may not.
	SharedRiskViolations int `json:"shared_risk_violations,omitempty"`
	// DCsUsed counts data centers hosting at least one primary server.
	DCsUsed int `json:"dcs_used"`
	// TotalBackupServers is Σ_j G_j.
	TotalBackupServers int `json:"total_backup_servers"`
}

// OperationalCost is space + power + labor + WAN (no penalties, no
// capital): the paper's "operational cost" whose reduction Figures 4(d)
// and 6(d) report.
func (b *CostBreakdown) OperationalCost() float64 {
	return b.Space + b.Power + b.Labor + b.WAN
}

// Total is the planner's objective: operational cost plus latency
// penalties plus backup-server capital.
func (b *CostBreakdown) Total() float64 {
	return b.OperationalCost() + b.Latency + b.BackupCapital
}

// SolveStats records how the optimization went.
type SolveStats struct {
	Rows        int     `json:"rows"`
	Cols        int     `json:"cols"`
	Integral    int     `json:"integral"`
	Nonzeros    int     `json:"nonzeros"`
	Iterations  int     `json:"iterations"`
	Nodes       int     `json:"nodes"`
	Gap         float64 `json:"gap"`
	CandidatesK int     `json:"candidates_k,omitempty"`
	Aggregated  bool    `json:"aggregated,omitempty"`
	Formulation string  `json:"formulation,omitempty"`
	// Workers is the number of branch & bound worker goroutines the solve
	// ran with; PeakQueueDepth is the largest number of simultaneously
	// open nodes. WallMillis and WorkMillis are the solve's elapsed
	// wall-clock time and the summed per-worker busy time — their ratio
	// approximates the effective parallelism achieved.
	Workers        int   `json:"workers,omitempty"`
	PeakQueueDepth int   `json:"peak_queue_depth,omitempty"`
	WallMillis     int64 `json:"wall_millis,omitempty"`
	WorkMillis     int64 `json:"work_millis,omitempty"`
	// Certificate is the independent feasibility certificate produced by
	// internal/certify after the solve (empty for plans that were not
	// certified, e.g. heuristic baselines).
	Certificate string `json:"certificate,omitempty"`
	// Degradation, when non-nil, is the resilient solve pipeline's account
	// of how this plan was produced: which fallback stage delivered it and
	// why earlier stages failed. nil means the exact MILP stage succeeded
	// on its first attempt with no budget pressure.
	Degradation *lp.DegradationReport `json:"degradation,omitempty"`
	// Metrics, when metrics collection was enabled on the solver options,
	// is the observability registry's snapshot taken after the solve:
	// pivot counts, per-worker node throughput, per-stage wall clock and
	// the rest of the taxonomy in internal/obs. nil whenever collection
	// is off, so default plan output is unchanged byte for byte.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// Plan is a complete "to-be" state: placements, backup pools and costs.
type Plan struct {
	Assignments []Assignment `json:"assignments"`
	// BackupServers maps target DC ID to the shared backup pool size G_j.
	BackupServers map[string]int `json:"backup_servers,omitempty"`
	Cost          CostBreakdown  `json:"cost"`
	Stats         SolveStats     `json:"stats"`
	// CapacityShadow, when shadow-price computation was requested, maps
	// target DC ID to the marginal monthly value of one additional server
	// slot there (the LP dual of the capacity row at the final plan):
	// where to expand next, and what it is worth.
	CapacityShadow map[string]float64 `json:"capacity_shadow,omitempty"`
}

// AssignmentFor returns the assignment of the given group, or nil.
func (p *Plan) AssignmentFor(groupID string) *Assignment {
	for i := range p.Assignments {
		if p.Assignments[i].GroupID == groupID {
			return &p.Assignments[i]
		}
	}
	return nil
}

// Evaluate scores a set of placements against an estate using the shared
// cost accounting. placement[i] is the estate DC index of group i's
// primary; secondary[i] (when secondaries is non-nil) is the DR site
// index; backups[j] is the backup pool size at DC j (nil for non-DR).
// The same function scores as-is states, baseline plans and LP plans.
func Evaluate(s *AsIsState, e *Estate, placement []int, secondary []int, backups []int) (CostBreakdown, error) {
	if len(placement) != len(s.Groups) {
		return CostBreakdown{}, fmt.Errorf("model: placement has %d entries for %d groups", len(placement), len(s.Groups))
	}
	if secondary != nil && len(secondary) != len(s.Groups) {
		return CostBreakdown{}, fmt.Errorf("model: secondary has %d entries for %d groups", len(secondary), len(s.Groups))
	}
	if backups != nil && len(backups) != len(e.DCs) {
		return CostBreakdown{}, fmt.Errorf("model: backups has %d entries for %d DCs", len(backups), len(e.DCs))
	}

	bd := CostBreakdown{PerDC: make(map[string]DCCost)}
	serversAt := make([]int, len(e.DCs))
	p := &s.Params

	for i := range s.Groups {
		g := &s.Groups[i]
		j := placement[i]
		if j < 0 || j >= len(e.DCs) {
			return CostBreakdown{}, fmt.Errorf("model: group %q placed at invalid DC index %d", g.ID, j)
		}
		serversAt[j] += g.Servers
		dc := &e.DCs[j]
		dcCost := bd.PerDC[dc.ID]
		dcCost.Servers += g.Servers

		power, labor, wan := primaryCost(g, e, p, j)
		lat := LatencyPenaltyAt(g, e, p, j)
		bd.Power += power
		bd.Labor += labor
		bd.WAN += wan
		bd.Latency += lat
		dcCost.Power += power
		dcCost.Labor += labor
		dcCost.WAN += wan
		dcCost.Latency += lat
		if lat > 0 {
			bd.LatencyViolations++
		}

		if secondary != nil {
			sj := secondary[i]
			if sj < 0 || sj >= len(e.DCs) {
				return CostBreakdown{}, fmt.Errorf("model: group %q has invalid secondary DC index %d", g.ID, sj)
			}
			if sj == j {
				return CostBreakdown{}, fmt.Errorf("model: group %q has identical primary and secondary DC %q", g.ID, dc.ID)
			}
			w := p.SecondaryLatencyWeight
			if w > 0 {
				slat := LatencyPenaltyAt(g, e, p, sj) * w
				bd.Latency += slat
				sdc := bd.PerDC[e.DCs[sj].ID]
				sdc.Latency += slat
				bd.PerDC[e.DCs[sj].ID] = sdc
				if slat > 0 {
					bd.LatencyViolations++
				}
			}
		}
		bd.PerDC[dc.ID] = dcCost
	}

	// Backup pools: space/power/labor at the hosting DC plus purchase
	// capital.
	if backups != nil {
		for j, gj := range backups {
			if gj < 0 {
				return CostBreakdown{}, fmt.Errorf("model: negative backup pool at DC %d", j)
			}
			if gj == 0 {
				continue
			}
			dc := &e.DCs[j]
			dcCost := bd.PerDC[dc.ID]
			dcCost.BackupServers += gj
			power, labor, capital := poolCost(dc, p, gj)
			bd.Power += power
			bd.Labor += labor
			bd.BackupCapital += capital
			dcCost.Power += power
			dcCost.Labor += labor
			dcCost.BackupCapital += capital
			bd.PerDC[dc.ID] = dcCost
			bd.TotalBackupServers += gj
			serversAt[j] += gj
		}
	}

	// Space with tiered (volume-discount) pricing evaluated on the DC's
	// total occupancy, including backups.
	for j, n := range serversAt {
		if n == 0 {
			continue
		}
		dc := &e.DCs[j]
		if n > dc.CapacityServers {
			return CostBreakdown{}, fmt.Errorf("model: DC %q holds %d servers, capacity %d", dc.ID, n, dc.CapacityServers)
		}
		space, err := dc.SpaceCost.Eval(float64(n))
		if err != nil {
			return CostBreakdown{}, fmt.Errorf("model: DC %q space cost: %w", dc.ID, err)
		}
		bd.Space += space
		dcCost := bd.PerDC[dc.ID]
		dcCost.Space += space
		bd.PerDC[dc.ID] = dcCost
	}
	usedPrimary := make([]bool, len(e.DCs))
	for i := range s.Groups {
		usedPrimary[placement[i]] = true
	}
	for _, u := range usedPrimary {
		if u {
			bd.DCsUsed++
		}
	}

	// Shared-risk accounting: each extra co-located member of a risk
	// domain at the same primary site is one violation.
	riskAt := make(map[[2]string]int)
	for i := range s.Groups {
		if l := s.Groups[i].SharedRiskGroup; l != "" {
			key := [2]string{l, e.DCs[placement[i]].ID}
			riskAt[key]++
			if riskAt[key] > 1 {
				bd.SharedRiskViolations++
			}
		}
	}
	return bd, nil
}

// EvaluateAsIs scores the current placement in the current estate: the
// paper's "as-is" operational cost and latency violations.
func EvaluateAsIs(s *AsIsState) (CostBreakdown, error) {
	placement := make([]int, len(s.Groups))
	for i := range s.Groups {
		g := &s.Groups[i]
		j := s.Current.DCIndex(g.CurrentDC)
		if j < 0 {
			return CostBreakdown{}, fmt.Errorf("model: group %q has no current DC", g.ID)
		}
		placement[i] = j
	}
	return Evaluate(s, &s.Current, placement, nil, nil)
}

// EvaluatePlan scores a Plan against the target estate. The plan's
// secondary sites are read when any assignment names one.
func EvaluatePlan(s *AsIsState, p *Plan) (CostBreakdown, error) {
	dr := false
	for i := range p.Assignments {
		dr = dr || p.Assignments[i].SecondaryDC != ""
	}
	placement, secondary, err := PlanIndices(s, p, dr)
	if err != nil {
		return CostBreakdown{}, err
	}
	var backups []int
	if len(p.BackupServers) > 0 {
		backups = make([]int, len(s.Target.DCs))
		for id, n := range p.BackupServers {
			j := s.Target.DCIndex(id)
			if j < 0 {
				return CostBreakdown{}, fmt.Errorf("model: plan has backup pool at unknown DC %q", id)
			}
			backups[j] = n
		}
	}
	return Evaluate(s, &s.Target, placement, secondary, backups)
}

// PlanIndices maps a plan's named assignments onto s's indices:
// placement[i] is the target-DC index of group i's primary and, when dr
// is set, secondary[i] that of its secondary site (nil otherwise). An
// error means the plan does not speak the state's vocabulary: it misses
// a group, or names a data center outside the target estate. A group
// with several assignments takes its first, as AssignmentFor does.
func PlanIndices(s *AsIsState, p *Plan, dr bool) (placement, secondary []int, err error) {
	byGroup := make(map[string]*Assignment, len(p.Assignments))
	for i := len(p.Assignments) - 1; i >= 0; i-- {
		byGroup[p.Assignments[i].GroupID] = &p.Assignments[i]
	}
	placement = make([]int, len(s.Groups))
	if dr {
		secondary = make([]int, len(s.Groups))
	}
	for i := range s.Groups {
		a := byGroup[s.Groups[i].ID]
		if a == nil {
			return nil, nil, fmt.Errorf("model: plan misses group %q", s.Groups[i].ID)
		}
		if placement[i] = s.Target.DCIndex(a.PrimaryDC); placement[i] < 0 {
			return nil, nil, fmt.Errorf("model: plan places group %q at unknown DC %q", a.GroupID, a.PrimaryDC)
		}
		if dr {
			if secondary[i] = s.Target.DCIndex(a.SecondaryDC); secondary[i] < 0 {
				return nil, nil, fmt.Errorf("model: plan gives group %q unknown secondary DC %q", a.GroupID, a.SecondaryDC)
			}
		}
	}
	return placement, secondary, nil
}

// RequiredBackups computes the single-failure shared backup pool implied
// by a set of primary/secondary placements: G_b = max_a Σ_{i: primary=a,
// secondary=b} S_i (§IV-B). The result is the minimum pool satisfying
// every single-DC failure.
func RequiredBackups(s *AsIsState, numDCs int, placement, secondary []int) []int {
	backups := make([]int, numDCs)
	sizeSharedPools(s.Groups, placement, secondary, make([]int, numDCs*numDCs), backups)
	return backups
}

// RequiredBackupsDedicated sizes per-group dedicated backup pools: when
// planning for more than one concurrent failure, backup servers cannot be
// shared (§IV-A), so G_b is the sum of all server demand routed to b.
func RequiredBackupsDedicated(s *AsIsState, numDCs int, placement, secondary []int) []int {
	backups := make([]int, numDCs)
	sizeDedicatedPools(s.Groups, secondary, backups)
	return backups
}

// Summary renders a compact multi-line description of the breakdown.
func (b *CostBreakdown) Summary() string {
	ids := make([]string, 0, len(b.PerDC))
	for id := range b.PerDC {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := fmt.Sprintf("total $%.0f (op $%.0f, latency $%.0f, backup capital $%.0f), %d DCs, %d violations\n",
		b.Total(), b.OperationalCost(), b.Latency, b.BackupCapital, b.DCsUsed, b.LatencyViolations)
	for _, id := range ids {
		c := b.PerDC[id]
		out += fmt.Sprintf("  %-12s srv %5d (+%d bak): space $%.0f power $%.0f labor $%.0f wan $%.0f lat $%.0f\n",
			id, c.Servers, c.BackupServers, c.Space, c.Power, c.Labor, c.WAN, c.Latency)
	}
	return out
}

// approxEqual reports near-equality scaled by magnitude, used by tests
// and the planner's self-check comparing LP objective to evaluator cost.
func approxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// CheckObjectiveMatches verifies that an LP objective and an evaluator
// total agree within tol (relative); the planner calls this as a
// self-check that its model encodes the same economics as the evaluator.
func CheckObjectiveMatches(lpObjective, evaluated, tol float64) error {
	if !approxEqual(lpObjective, evaluated, tol) {
		return fmt.Errorf("model: LP objective %v disagrees with evaluated cost %v", lpObjective, evaluated)
	}
	return nil
}
