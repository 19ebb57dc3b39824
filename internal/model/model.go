// Package model defines the enterprise IT estate domain for eTransform:
// application groups, data centers, user populations, cost schedules, the
// "as-is" input state (Table I of the paper) and the "to-be" plan, plus a
// single cost evaluator used to score every plan — whether produced by the
// LP planner, a baseline heuristic, or the current as-is placement — so
// all comparisons share one accounting.
package model

import (
	"fmt"
	"math"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/stepwise"
	"github.com/etransform/etransform/internal/tol"
)

// AppGroup is a clustered application group (§II): applications that
// interact closely or share data, placed as a unit because splitting the
// group would turn LAN traffic into WAN traffic. It is the atomic unit of
// placement.
type AppGroup struct {
	// ID is unique within the estate.
	ID string `json:"id"`
	// Name is a human-readable label.
	Name string `json:"name,omitempty"`
	// Servers is S_i, the number of physical servers the group runs on.
	// The planner preserves this count: repacking never shrinks the
	// resources an application group had (§III-A).
	Servers int `json:"servers"`
	// DataMbPerMonth is D_i, the monthly data exchanged between the group
	// and its users, in megabits.
	DataMbPerMonth float64 `json:"data_mb_per_month"`
	// UsersByLocation is C_ir: the number of users in each user location
	// (indexed like AsIsState.UserLocations).
	UsersByLocation []int `json:"users_by_location"`
	// LatencyPenalty is the group's latency penalty step function.
	LatencyPenalty stepwise.LatencyPenalty `json:"latency_penalty"`
	// CurrentDC is the ID of the data center the group runs in today.
	CurrentDC string `json:"current_dc"`
	// AllowedRegions, when non-empty, restricts target placement to data
	// centers in the listed regions (legal/jurisdictional constraints).
	AllowedRegions []geo.Region `json:"allowed_regions,omitempty"`
	// PinnedDC, when set, forces the group's primary placement (admin
	// iterative-modification interface).
	PinnedDC string `json:"pinned_dc,omitempty"`
	// ForbiddenDCs lists target data centers the group must not use
	// (for either primary or secondary placement).
	ForbiddenDCs []string `json:"forbidden_dcs,omitempty"`
	// SharedRiskGroup, when set, names a risk domain: application groups
	// carrying the same label must not share a primary data center
	// (the paper's "Shared Risk" constraint, §I), so one site failure
	// cannot take out more than one of them.
	SharedRiskGroup string `json:"shared_risk_group,omitempty"`
}

// TotalUsers returns Σ_r C_ir.
func (g *AppGroup) TotalUsers() int {
	n := 0
	for _, c := range g.UsersByLocation {
		n += c
	}
	return n
}

// DataCenter is one data center location, either current or target.
type DataCenter struct {
	// ID is unique within its estate.
	ID string `json:"id"`
	// Name is a human-readable label.
	Name string `json:"name,omitempty"`
	// Location places the data center geographically.
	Location geo.Location `json:"location"`
	// CapacityServers is O_j, the maximum servers the site can hold.
	CapacityServers int `json:"capacity_servers"`
	// SpaceCost is Q_j: monthly space cost per server, possibly tiered
	// with volume discounts (economies of scale, §III-B).
	SpaceCost stepwise.Curve `json:"space_cost"`
	// PowerCostPerKWh is E_j, the electricity price in $ per kilowatt-hour.
	PowerCostPerKWh float64 `json:"power_cost_per_kwh"`
	// LaborCostPerAdmin is T_j, the monthly fully-loaded cost of one
	// administrator at this location.
	LaborCostPerAdmin float64 `json:"labor_cost_per_admin"`
	// WANCostPerMb is W_j, the metered wide-area network price per megabit.
	WANCostPerMb float64 `json:"wan_cost_per_mb"`
}

// Estate is one side of the transformation: a set of data centers with
// the latency and (optionally) VPN link pricing toward the user
// locations.
type Estate struct {
	// DCs are the data centers.
	DCs []DataCenter `json:"dcs"`
	// LatencyMs[r][j] is the average latency between user location r and
	// data center j, in milliseconds. Dimensions: R × len(DCs).
	LatencyMs [][]float64 `json:"latency_ms"`
	// VPNLinkMonthly[j][r], when present, is F_jr: the monthly lease cost
	// of one dedicated VPN link between data center j and user location r.
	// When set, WAN costs use the paper's dedicated-link model instead of
	// metered per-megabit pricing.
	VPNLinkMonthly [][]float64 `json:"vpn_link_monthly,omitempty"`
}

// DCIndex returns the index of the data center with the given ID, or -1.
func (e *Estate) DCIndex(id string) int {
	for j := range e.DCs {
		if e.DCs[j].ID == id {
			return j
		}
	}
	return -1
}

// CostParams are the estate-wide cost constants of Table I and §VI-B.
type CostParams struct {
	// ServerPowerKW is α: average power draw of one server in kilowatts.
	ServerPowerKW float64 `json:"server_power_kw"`
	// ServersPerAdmin is β: servers one administrator can handle.
	ServersPerAdmin float64 `json:"servers_per_admin"`
	// HoursPerMonth converts kW to monthly kWh (≈730).
	HoursPerMonth float64 `json:"hours_per_month"`
	// VPNLinkCapacityMb is γ: monthly megabits one dedicated link carries.
	// Required when any estate provides VPNLinkMonthly pricing.
	VPNLinkCapacityMb float64 `json:"vpn_link_capacity_mb,omitempty"`
	// DRServerCost is ζ: the cost of buying one backup server.
	DRServerCost float64 `json:"dr_server_cost,omitempty"`
	// SecondaryLatencyWeight scales the latency penalty applied to the
	// secondary (DR) placement of each group. 1 demands full latency
	// compliance after failover; 0 ignores secondary latency.
	SecondaryLatencyWeight float64 `json:"secondary_latency_weight,omitempty"`
	// AverageLatencyPenalty switches the latency penalty to the paper's
	// §III-B textual definition — charge every user when the group's
	// user-weighted AVERAGE latency exceeds a threshold. The default
	// (false) charges each user location by its own latency, which is
	// what the paper's Figure 7 behavior actually exhibits (mixed user
	// populations migrate toward their majority as penalties grow, which
	// a group-average step cannot produce) and is the more natural
	// per-user reading of L_ij.
	AverageLatencyPenalty bool `json:"average_latency_penalty,omitempty"`
}

// DefaultParams returns the paper's evaluation constants (§VI-B): 350 W
// servers, 130 servers per administrator, $1000 DR servers.
func DefaultParams() CostParams {
	return CostParams{
		ServerPowerKW:          0.35,
		ServersPerAdmin:        130,
		HoursPerMonth:          730,
		VPNLinkCapacityMb:      1e6,
		DRServerCost:           1000,
		SecondaryLatencyWeight: 1,
	}
}

// AsIsState is the full input to the planner: the current estate, the
// candidate target estate, the application groups and the cost constants.
type AsIsState struct {
	// Name labels the dataset (e.g. "enterprise1").
	Name string `json:"name"`
	// Groups are the application groups to place.
	Groups []AppGroup `json:"groups"`
	// UserLocations are the R user locations referenced by
	// AppGroup.UsersByLocation and the latency matrices.
	UserLocations []geo.Location `json:"user_locations"`
	// Current is the as-is estate (used for as-is cost accounting).
	Current Estate `json:"current"`
	// Target is the candidate target estate the planner packs into.
	Target Estate `json:"target"`
	// Params are the cost constants.
	Params CostParams `json:"params"`
}

// NumUserLocations returns R.
func (s *AsIsState) NumUserLocations() int { return len(s.UserLocations) }

// Validate checks the state for structural consistency. It returns the
// first problem found.
func (s *AsIsState) Validate() error {
	if len(s.Groups) == 0 {
		return fmt.Errorf("model: no application groups")
	}
	if len(s.Target.DCs) == 0 {
		return fmt.Errorf("model: no target data centers")
	}
	r := len(s.UserLocations)
	if r == 0 {
		return fmt.Errorf("model: no user locations")
	}
	if err := s.validateEstate("current", &s.Current, r, false); err != nil {
		return err
	}
	if err := s.validateEstate("target", &s.Target, r, true); err != nil {
		return err
	}
	for _, f := range []struct {
		path     string
		v        float64
		positive bool // must be strictly positive, not merely non-negative
	}{
		{"params.server_power_kw", s.Params.ServerPowerKW, false},
		{"params.servers_per_admin", s.Params.ServersPerAdmin, true},
		{"params.hours_per_month", s.Params.HoursPerMonth, true},
		{"params.vpn_link_capacity_mb", s.Params.VPNLinkCapacityMb, false},
		{"params.dr_server_cost", s.Params.DRServerCost, false},
		{"params.secondary_latency_weight", s.Params.SecondaryLatencyWeight, false},
	} {
		if err := checkFinite(f.path, f.v); err != nil {
			return err
		}
		if f.positive && f.v <= 0 {
			return fmt.Errorf("model: %s = %v: must be positive", f.path, f.v)
		}
	}
	seen := make(map[string]bool, len(s.Groups))
	maxCap := 0
	for _, dc := range s.Target.DCs {
		if dc.CapacityServers > maxCap {
			maxCap = dc.CapacityServers
		}
	}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.ID == "" {
			return fmt.Errorf("model: group %d has empty ID", i)
		}
		if seen[g.ID] {
			return fmt.Errorf("model: duplicate group ID %q", g.ID)
		}
		seen[g.ID] = true
		if g.Servers <= 0 {
			return fmt.Errorf("model: group %q has %d servers", g.ID, g.Servers)
		}
		if g.Servers > maxCap {
			return fmt.Errorf("model: group %q needs %d servers but the largest target data center holds %d; split it first (see §II)",
				g.ID, g.Servers, maxCap)
		}
		if !finiteNonNegative(g.DataMbPerMonth) {
			return fmt.Errorf("%w (group %q)", checkFinite(fmt.Sprintf("groups[%d].data_mb_per_month", i), g.DataMbPerMonth), g.ID)
		}
		if len(g.UsersByLocation) != r {
			return fmt.Errorf("model: group %q has %d user-location entries, want %d", g.ID, len(g.UsersByLocation), r)
		}
		for loc, c := range g.UsersByLocation {
			if c < 0 {
				return fmt.Errorf("model: group %q has negative users at location %d", g.ID, loc)
			}
		}
		if g.CurrentDC != "" && s.Current.DCIndex(g.CurrentDC) < 0 {
			return fmt.Errorf("model: group %q references unknown current DC %q", g.ID, g.CurrentDC)
		}
		if g.PinnedDC != "" && s.Target.DCIndex(g.PinnedDC) < 0 {
			return fmt.Errorf("model: group %q pinned to unknown target DC %q", g.ID, g.PinnedDC)
		}
		for _, f := range g.ForbiddenDCs {
			if s.Target.DCIndex(f) < 0 {
				return fmt.Errorf("model: group %q forbids unknown target DC %q", g.ID, f)
			}
			if f == g.PinnedDC {
				return fmt.Errorf("model: group %q both pins and forbids DC %q", g.ID, f)
			}
		}
	}
	if s.hasVPN(&s.Target) || s.hasVPN(&s.Current) {
		if s.Params.VPNLinkCapacityMb <= 0 {
			return fmt.Errorf("model: VPN link pricing present but VPNLinkCapacityMb (γ) is not set")
		}
	}
	riskSizes := make(map[string]int)
	for i := range s.Groups {
		if l := s.Groups[i].SharedRiskGroup; l != "" {
			riskSizes[l]++
		}
	}
	for label, n := range riskSizes {
		if n > len(s.Target.DCs) {
			return fmt.Errorf("model: shared-risk group %q has %d members but only %d target data centers exist to separate them",
				label, n, len(s.Target.DCs))
		}
	}
	return nil
}

func (s *AsIsState) hasVPN(e *Estate) bool { return len(e.VPNLinkMonthly) > 0 }

// finiteNonNegative reports whether checkFinite accepts v, so a caller
// that builds the field path per record formats it only on failure.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1) // NaN >= 0 is false
}

// checkFinite rejects NaN, ±Inf and negative values, naming the field by
// its JSON path so a bad record in a large dataset can be located
// directly. NaN needs the explicit check: NaN < 0 is false, so a plain
// negativity test silently admits it — and one NaN cost poisons every
// objective coefficient it touches downstream.
func checkFinite(path string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("model: %s = %v: must be finite", path, v)
	}
	if v < 0 {
		return fmt.Errorf("model: %s = %v: must not be negative", path, v)
	}
	return nil
}

func (s *AsIsState) validateEstate(label string, e *Estate, r int, required bool) error {
	if len(e.DCs) == 0 {
		if required {
			return fmt.Errorf("model: %s estate has no data centers", label)
		}
		// An absent estate must be absent throughout: stray latency or VPN
		// rows against zero data centers would be silently ignored by the
		// cost evaluator but index-panic in anything that trusts the
		// declared dimensions.
		if len(e.LatencyMs) != 0 {
			return fmt.Errorf("model: %s.latency_ms has %d rows but the %s estate has no data centers", label, len(e.LatencyMs), label)
		}
		if len(e.VPNLinkMonthly) != 0 {
			return fmt.Errorf("model: %s.vpn_link_monthly has %d rows but the %s estate has no data centers", label, len(e.VPNLinkMonthly), label)
		}
		return nil
	}
	seen := make(map[string]bool, len(e.DCs))
	for j := range e.DCs {
		dc := &e.DCs[j]
		if dc.ID == "" {
			return fmt.Errorf("model: %s DC %d has empty ID", label, j)
		}
		if seen[dc.ID] {
			return fmt.Errorf("model: duplicate %s DC ID %q", label, dc.ID)
		}
		seen[dc.ID] = true
		if dc.CapacityServers <= 0 {
			return fmt.Errorf("model: %s DC %q has capacity %d", label, dc.ID, dc.CapacityServers)
		}
		for _, f := range []struct {
			field string
			v     float64
		}{
			{"power_cost_per_kwh", dc.PowerCostPerKWh},
			{"labor_cost_per_admin", dc.LaborCostPerAdmin},
			{"wan_cost_per_mb", dc.WANCostPerMb},
		} {
			if !finiteNonNegative(f.v) {
				return fmt.Errorf("%w (DC %q)", checkFinite(fmt.Sprintf("%s.dcs[%d].%s", label, j, f.field), f.v), dc.ID)
			}
		}
	}
	if len(e.LatencyMs) != r {
		return fmt.Errorf("model: %s.latency_ms has %d rows, want %d (one per user location)", label, len(e.LatencyMs), r)
	}
	for u, row := range e.LatencyMs {
		if len(row) != len(e.DCs) {
			return fmt.Errorf("model: %s.latency_ms[%d] has %d entries, want %d (one per %s data center)", label, u, len(row), len(e.DCs), label)
		}
		for j, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("model: %s.latency_ms[%d][%d] = %v: must be finite and non-negative", label, u, j, v)
			}
		}
	}
	if len(e.VPNLinkMonthly) > 0 {
		if len(e.VPNLinkMonthly) != len(e.DCs) {
			return fmt.Errorf("model: %s.vpn_link_monthly has %d rows, want %d (one per %s data center)", label, len(e.VPNLinkMonthly), len(e.DCs), label)
		}
		for j, row := range e.VPNLinkMonthly {
			if len(row) != r {
				return fmt.Errorf("model: %s.vpn_link_monthly[%d] has %d entries, want %d (one per user location)", label, j, len(row), r)
			}
			for u, v := range row {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("model: %s.vpn_link_monthly[%d][%d] = %v: must be finite and non-negative", label, j, u, v)
				}
			}
		}
	}
	return nil
}

// AvgLatencyMs returns the user-weighted average latency of group g when
// placed at data center j of estate e (the quantity the latency penalty
// function is evaluated on, §III-B). Groups with no users see zero
// latency.
func AvgLatencyMs(g *AppGroup, e *Estate, j int) float64 {
	total := g.TotalUsers()
	if total == 0 {
		return 0
	}
	sum := 0.0
	for r, c := range g.UsersByLocation {
		if c > 0 {
			sum += float64(c) * e.LatencyMs[r][j]
		}
	}
	return sum / float64(total)
}

// LatencyPenaltyAt returns L_ij: the total latency penalty of placing
// group g at data center j of estate e. In the default per-user-location
// mode each user location is charged by its own latency; in
// group-average mode (CostParams.AverageLatencyPenalty) every user is
// charged when the group's average latency exceeds a threshold, as
// §III-B's text describes.
func LatencyPenaltyAt(g *AppGroup, e *Estate, p *CostParams, j int) float64 {
	if g.LatencyPenalty.IsZero() {
		return 0
	}
	if p.AverageLatencyPenalty {
		return g.LatencyPenalty.PerUser(AvgLatencyMs(g, e, j)) * float64(g.TotalUsers())
	}
	total := 0.0
	for r, c := range g.UsersByLocation {
		if c > 0 {
			total += float64(c) * g.LatencyPenalty.PerUser(e.LatencyMs[r][j])
		}
	}
	return total
}

// WANCostAt returns the monthly WAN cost of group g served from data
// center j of estate e: D_i·W_j under metered pricing, or the paper's
// dedicated-VPN-link formula Σ_r (C_ir·D_i)/(γ·ΣC_i)·F_jr when the estate
// has VPN link pricing (§III-B).
func WANCostAt(g *AppGroup, e *Estate, p *CostParams, j int) float64 {
	if len(e.VPNLinkMonthly) == 0 {
		return g.DataMbPerMonth * e.DCs[j].WANCostPerMb
	}
	total := g.TotalUsers()
	if total == 0 || tol.IsZero(g.DataMbPerMonth) {
		return 0
	}
	cost := 0.0
	for r, c := range g.UsersByLocation {
		if c == 0 {
			continue
		}
		links := (float64(c) * g.DataMbPerMonth) / (p.VPNLinkCapacityMb * float64(total))
		cost += links * e.VPNLinkMonthly[j][r]
	}
	return cost
}

// ServerMonthlyCost returns the per-server monthly power + labor cost at
// data center j of estate e: α·E_j·hours + T_j/β. Space is excluded
// because it may be tiered (see Evaluate).
func ServerMonthlyCost(dc *DataCenter, p *CostParams) float64 {
	power := p.ServerPowerKW * dc.PowerCostPerKWh * p.HoursPerMonth
	labor := dc.LaborCostPerAdmin / p.ServersPerAdmin
	return power + labor
}
