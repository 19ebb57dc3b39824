package model

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/stepwise"
)

// testState builds a small valid two-DC, three-group state used across
// the package tests.
func testState(t *testing.T) *AsIsState {
	t.Helper()
	pen, err := stepwise.SingleThreshold(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	mkDC := func(id string, cap int, space, power, labor, wan float64) DataCenter {
		return DataCenter{
			ID:                id,
			Location:          geo.Location{ID: "loc-" + id, Region: geo.RegionNorthAmerica},
			CapacityServers:   cap,
			SpaceCost:         stepwise.Flat(space),
			PowerCostPerKWh:   power,
			LaborCostPerAdmin: labor,
			WANCostPerMb:      wan,
		}
	}
	s := &AsIsState{
		Name: "test",
		Groups: []AppGroup{
			{ID: "g1", Servers: 10, DataMbPerMonth: 1000, UsersByLocation: []int{50, 0}, LatencyPenalty: pen, CurrentDC: "old1"},
			{ID: "g2", Servers: 5, DataMbPerMonth: 500, UsersByLocation: []int{0, 30}, CurrentDC: "old1"},
			{ID: "g3", Servers: 8, DataMbPerMonth: 0, UsersByLocation: []int{10, 10}, LatencyPenalty: pen, CurrentDC: "old2"},
		},
		UserLocations: []geo.Location{{ID: "u0"}, {ID: "u1"}},
		Current: Estate{
			DCs: []DataCenter{
				mkDC("old1", 100, 100, 0.10, 6500, 0.02),
				mkDC("old2", 100, 120, 0.12, 7000, 0.03),
			},
			LatencyMs: [][]float64{{5, 20}, {20, 5}},
		},
		Target: Estate{
			DCs: []DataCenter{
				mkDC("t1", 50, 80, 0.08, 6000, 0.01),
				mkDC("t2", 50, 90, 0.09, 6200, 0.015),
			},
			LatencyMs: [][]float64{{5, 25}, {25, 5}},
		},
		Params: DefaultParams(),
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("test state invalid: %v", err)
	}
	return s
}

func TestValidateCatchesProblems(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*AsIsState)
	}{
		{"no-groups", func(s *AsIsState) { s.Groups = nil }},
		{"no-targets", func(s *AsIsState) { s.Target.DCs = nil }},
		{"no-users", func(s *AsIsState) { s.UserLocations = nil }},
		{"dup-group", func(s *AsIsState) { s.Groups[1].ID = "g1" }},
		{"empty-group-id", func(s *AsIsState) { s.Groups[0].ID = "" }},
		{"zero-servers", func(s *AsIsState) { s.Groups[0].Servers = 0 }},
		{"group-too-big", func(s *AsIsState) { s.Groups[0].Servers = 51 }},
		{"negative-data", func(s *AsIsState) { s.Groups[0].DataMbPerMonth = -1 }},
		{"wrong-user-dims", func(s *AsIsState) { s.Groups[0].UsersByLocation = []int{1} }},
		{"negative-users", func(s *AsIsState) { s.Groups[0].UsersByLocation[0] = -1 }},
		{"unknown-current", func(s *AsIsState) { s.Groups[0].CurrentDC = "nope" }},
		{"unknown-pin", func(s *AsIsState) { s.Groups[0].PinnedDC = "nope" }},
		{"unknown-forbid", func(s *AsIsState) { s.Groups[0].ForbiddenDCs = []string{"nope"} }},
		{"pin-and-forbid", func(s *AsIsState) {
			s.Groups[0].PinnedDC = "t1"
			s.Groups[0].ForbiddenDCs = []string{"t1"}
		}},
		{"dup-dc", func(s *AsIsState) { s.Target.DCs[1].ID = "t1" }},
		{"zero-capacity", func(s *AsIsState) { s.Target.DCs[0].CapacityServers = 0 }},
		{"negative-power", func(s *AsIsState) { s.Target.DCs[0].PowerCostPerKWh = -1 }},
		{"latency-dims", func(s *AsIsState) { s.Target.LatencyMs = s.Target.LatencyMs[:1] }},
		{"latency-ragged", func(s *AsIsState) { s.Target.LatencyMs[0] = []float64{1} }},
		{"latency-negative", func(s *AsIsState) { s.Target.LatencyMs[0][0] = -2 }},
		{"bad-params", func(s *AsIsState) { s.Params.ServersPerAdmin = 0 }},
		{"vpn-no-gamma", func(s *AsIsState) {
			s.Target.VPNLinkMonthly = [][]float64{{1, 2}, {3, 4}}
			s.Params.VPNLinkCapacityMb = 0
		}},
		{"vpn-dims", func(s *AsIsState) {
			s.Target.VPNLinkMonthly = [][]float64{{1, 2}}
			s.Params.VPNLinkCapacityMb = 10
		}},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			s := testState(t)
			tt.mut(s)
			if err := s.Validate(); err == nil {
				t.Error("Validate accepted a broken state")
			}
		})
	}
}

// TestValidateMatrixFieldPaths locks the latency/VPN dimension checks to
// JSON field paths: a ragged or mis-sized matrix in a perturbed or
// hand-edited state must be reported by the exact row that is wrong, not
// by a later index panic or a silent mis-costing.
func TestValidateMatrixFieldPaths(t *testing.T) {
	cases := []struct {
		name     string
		mut      func(*AsIsState)
		wantPath string
	}{
		{"latency-missing-row", func(s *AsIsState) { s.Target.LatencyMs = s.Target.LatencyMs[:1] }, "target.latency_ms"},
		{"latency-extra-row", func(s *AsIsState) {
			s.Current.LatencyMs = append(s.Current.LatencyMs, []float64{1, 1})
		}, "current.latency_ms"},
		{"latency-ragged-row", func(s *AsIsState) { s.Target.LatencyMs[1] = []float64{1} }, "target.latency_ms[1]"},
		{"latency-wide-row", func(s *AsIsState) { s.Current.LatencyMs[0] = []float64{1, 2, 3} }, "current.latency_ms[0]"},
		{"latency-nan-cell", func(s *AsIsState) { s.Target.LatencyMs[1][0] = math.NaN() }, "target.latency_ms[1][0]"},
		{"latency-negative-cell", func(s *AsIsState) { s.Target.LatencyMs[0][1] = -3 }, "target.latency_ms[0][1]"},
		{"vpn-missing-row", func(s *AsIsState) {
			s.Target.VPNLinkMonthly = [][]float64{{1, 2}}
			s.Params.VPNLinkCapacityMb = 10
		}, "target.vpn_link_monthly"},
		{"vpn-ragged-row", func(s *AsIsState) {
			s.Target.VPNLinkMonthly = [][]float64{{1, 2}, {3}}
			s.Params.VPNLinkCapacityMb = 10
		}, "target.vpn_link_monthly[1]"},
		{"vpn-inf-cell", func(s *AsIsState) {
			s.Target.VPNLinkMonthly = [][]float64{{1, 2}, {3, math.Inf(1)}}
			s.Params.VPNLinkCapacityMb = 10
		}, "target.vpn_link_monthly[1][1]"},
		{"latency-without-dcs", func(s *AsIsState) {
			s.Current.DCs = nil
			s.Groups[0].CurrentDC = ""
			s.Groups[1].CurrentDC = ""
			s.Groups[2].CurrentDC = ""
		}, "current.latency_ms"},
		{"vpn-without-dcs", func(s *AsIsState) {
			s.Current.DCs = nil
			s.Current.LatencyMs = nil
			s.Current.VPNLinkMonthly = [][]float64{{1, 2}}
			s.Params.VPNLinkCapacityMb = 10
			s.Groups[0].CurrentDC = ""
			s.Groups[1].CurrentDC = ""
			s.Groups[2].CurrentDC = ""
		}, "current.vpn_link_monthly"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s := testState(t)
			tt.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a mis-dimensioned matrix")
			}
			if !strings.Contains(err.Error(), tt.wantPath) {
				t.Errorf("error %q does not name field path %q", err, tt.wantPath)
			}
		})
	}
}

// TestValidateRejectsNonFinite covers the NaN/Inf/negative hardening:
// every numeric cost or capacity field must reject non-finite values, and
// the error must carry the JSON field path so the offending record in a
// large dataset can be located without a debugger.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		mut      func(*AsIsState)
		wantPath string
	}{
		{"nan-power", func(s *AsIsState) { s.Target.DCs[0].PowerCostPerKWh = nan }, "target.dcs[0].power_cost_per_kwh"},
		{"inf-power", func(s *AsIsState) { s.Target.DCs[1].PowerCostPerKWh = inf }, "target.dcs[1].power_cost_per_kwh"},
		{"nan-labor", func(s *AsIsState) { s.Current.DCs[0].LaborCostPerAdmin = nan }, "current.dcs[0].labor_cost_per_admin"},
		{"neg-labor", func(s *AsIsState) { s.Target.DCs[0].LaborCostPerAdmin = -1 }, "target.dcs[0].labor_cost_per_admin"},
		{"inf-wan", func(s *AsIsState) { s.Target.DCs[0].WANCostPerMb = inf }, "target.dcs[0].wan_cost_per_mb"},
		{"nan-wan", func(s *AsIsState) { s.Current.DCs[1].WANCostPerMb = nan }, "current.dcs[1].wan_cost_per_mb"},
		{"inf-data", func(s *AsIsState) { s.Groups[1].DataMbPerMonth = inf }, "groups[1].data_mb_per_month"},
		{"nan-data", func(s *AsIsState) { s.Groups[0].DataMbPerMonth = nan }, "groups[0].data_mb_per_month"},
		{"nan-server-power", func(s *AsIsState) { s.Params.ServerPowerKW = nan }, "params.server_power_kw"},
		{"neg-server-power", func(s *AsIsState) { s.Params.ServerPowerKW = -0.1 }, "params.server_power_kw"},
		{"inf-servers-per-admin", func(s *AsIsState) { s.Params.ServersPerAdmin = inf }, "params.servers_per_admin"},
		{"zero-servers-per-admin", func(s *AsIsState) { s.Params.ServersPerAdmin = 0 }, "params.servers_per_admin"},
		{"nan-hours", func(s *AsIsState) { s.Params.HoursPerMonth = nan }, "params.hours_per_month"},
		{"zero-hours", func(s *AsIsState) { s.Params.HoursPerMonth = 0 }, "params.hours_per_month"},
		{"inf-vpn-capacity", func(s *AsIsState) { s.Params.VPNLinkCapacityMb = inf }, "params.vpn_link_capacity_mb"},
		{"neg-dr-cost", func(s *AsIsState) { s.Params.DRServerCost = -5 }, "params.dr_server_cost"},
		{"nan-dr-cost", func(s *AsIsState) { s.Params.DRServerCost = nan }, "params.dr_server_cost"},
		{"neg-secondary-weight", func(s *AsIsState) { s.Params.SecondaryLatencyWeight = -1 }, "params.secondary_latency_weight"},
		{"inf-secondary-weight", func(s *AsIsState) { s.Params.SecondaryLatencyWeight = inf }, "params.secondary_latency_weight"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			s := testState(t)
			tt.mut(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a non-finite or negative value")
			}
			if !strings.Contains(err.Error(), tt.wantPath) {
				t.Errorf("error %q does not name field path %q", err, tt.wantPath)
			}
		})
	}
}

func TestAvgLatency(t *testing.T) {
	s := testState(t)
	g := &s.Groups[2] // 10 users at each location
	// Target t1: lat 5 from u0, 25 from u1 → avg 15.
	if got := AvgLatencyMs(g, &s.Target, 0); got != 15 {
		t.Errorf("AvgLatencyMs = %v, want 15", got)
	}
	// A group with no users has zero latency.
	empty := AppGroup{UsersByLocation: []int{0, 0}}
	if got := AvgLatencyMs(&empty, &s.Target, 0); got != 0 {
		t.Errorf("no-user latency = %v", got)
	}
}

func TestLatencyPenaltyAt(t *testing.T) {
	s := testState(t)
	// g1: all 50 users at u0. At t1 (5ms): no penalty. At t2 (25ms): $100×50.
	g := &s.Groups[0]
	if got := LatencyPenaltyAt(g, &s.Target, &s.Params, 0); got != 0 {
		t.Errorf("penalty at t1 = %v, want 0", got)
	}
	if got := LatencyPenaltyAt(g, &s.Target, &s.Params, 1); got != 5000 {
		t.Errorf("penalty at t2 = %v, want 5000", got)
	}
	// g2 has no penalty function.
	if got := LatencyPenaltyAt(&s.Groups[1], &s.Target, &s.Params, 0); got != 0 {
		t.Errorf("insensitive group penalty = %v", got)
	}
	// g3: 10 users at each location. At t1 the u1 users see 25ms (penalty)
	// and the u0 users 5ms (fine): per-user-location mode charges only the
	// far half.
	if got := LatencyPenaltyAt(&s.Groups[2], &s.Target, &s.Params, 0); got != 1000 {
		t.Errorf("per-user penalty = %v, want 1000", got)
	}
	// Group-average mode: avg 15ms > 10 → everyone pays.
	avg := s.Params
	avg.AverageLatencyPenalty = true
	if got := LatencyPenaltyAt(&s.Groups[2], &s.Target, &avg, 0); got != 2000 {
		t.Errorf("average-mode penalty = %v, want 2000", got)
	}
}

func TestWANCostMetered(t *testing.T) {
	s := testState(t)
	g := &s.Groups[0] // 1000 Mb/month
	if got := WANCostAt(g, &s.Target, &s.Params, 0); got != 10 {
		t.Errorf("metered WAN = %v, want 1000×0.01 = 10", got)
	}
}

func TestWANCostVPN(t *testing.T) {
	s := testState(t)
	s.Target.VPNLinkMonthly = [][]float64{{200, 400}, {300, 100}}
	s.Params.VPNLinkCapacityMb = 100
	// g1: 50 users all at u0, D=1000. Links to u0 = (50×1000)/(100×50) = 10.
	// Cost at t1 = 10×200 = 2000.
	g := &s.Groups[0]
	if got := WANCostAt(g, &s.Target, &s.Params, 0); got != 2000 {
		t.Errorf("VPN WAN = %v, want 2000", got)
	}
	// g3: D=0 → no links.
	if got := WANCostAt(&s.Groups[2], &s.Target, &s.Params, 0); got != 0 {
		t.Errorf("zero-data VPN WAN = %v", got)
	}
}

func TestServerMonthlyCost(t *testing.T) {
	s := testState(t)
	dc := &s.Target.DCs[0]
	want := 0.35*0.08*730 + 6000.0/130
	if got := ServerMonthlyCost(dc, &s.Params); math.Abs(got-want) > 1e-9 {
		t.Errorf("ServerMonthlyCost = %v, want %v", got, want)
	}
}

func TestEvaluateSimplePlacement(t *testing.T) {
	s := testState(t)
	// Everything in t1 (10+5+8 = 23 ≤ 50).
	bd, err := Evaluate(s, &s.Target, []int{0, 0, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bd.DCsUsed != 1 {
		t.Errorf("DCsUsed = %d", bd.DCsUsed)
	}
	wantSpace := 23 * 80.0
	if math.Abs(bd.Space-wantSpace) > 1e-9 {
		t.Errorf("space = %v, want %v", bd.Space, wantSpace)
	}
	wantPower := 0.35 * 0.08 * 730 * 23
	if math.Abs(bd.Power-wantPower) > 1e-6 {
		t.Errorf("power = %v, want %v", bd.Power, wantPower)
	}
	wantLabor := 6000.0 / 130 * 23
	if math.Abs(bd.Labor-wantLabor) > 1e-6 {
		t.Errorf("labor = %v, want %v", bd.Labor, wantLabor)
	}
	wantWAN := 1500 * 0.01
	if math.Abs(bd.WAN-wantWAN) > 1e-9 {
		t.Errorf("wan = %v, want %v", bd.WAN, wantWAN)
	}
	// g2's users are all at u1 but g2 is latency-insensitive; g3's far
	// half (10 users at u1, 25ms) pays 100 each; g1 fine.
	if bd.LatencyViolations != 1 {
		t.Errorf("violations = %d, want 1", bd.LatencyViolations)
	}
	if math.Abs(bd.Latency-1000) > 1e-9 {
		t.Errorf("latency penalty = %v, want 1000", bd.Latency)
	}
	if got := bd.Total(); math.Abs(got-(bd.OperationalCost()+1000)) > 1e-9 {
		t.Errorf("total = %v inconsistent", got)
	}
}

func TestEvaluateCapacityViolation(t *testing.T) {
	s := testState(t)
	s.Groups[0].Servers = 45
	s.Groups[1].Servers = 45 // 45+45+8 > 50
	if _, err := Evaluate(s, &s.Target, []int{0, 0, 0}, nil, nil); err == nil {
		t.Error("capacity violation accepted")
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := testState(t)
	if _, err := Evaluate(s, &s.Target, []int{0}, nil, nil); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := Evaluate(s, &s.Target, []int{0, 0, 9}, nil, nil); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := Evaluate(s, &s.Target, []int{0, 0, 0}, []int{0, 1, 0}, nil); err == nil {
		t.Error("secondary == primary accepted")
	}
	if _, err := Evaluate(s, &s.Target, []int{0, 0, 0}, []int{1, 1, 1}, []int{-1, 0}); err == nil {
		t.Error("negative backups accepted")
	}
}

func TestEvaluateWithDR(t *testing.T) {
	s := testState(t)
	placement := []int{0, 0, 0}
	secondary := []int{1, 1, 1}
	backups := RequiredBackups(s, 2, placement, secondary)
	// All primaries at DC0 with secondary DC1: demand (0→1) = 23 servers.
	if backups[1] != 23 || backups[0] != 0 {
		t.Fatalf("backups = %v, want [0 23]", backups)
	}
	bd, err := Evaluate(s, &s.Target, placement, secondary, backups)
	if err != nil {
		t.Fatal(err)
	}
	if bd.TotalBackupServers != 23 {
		t.Errorf("TotalBackupServers = %d", bd.TotalBackupServers)
	}
	if bd.BackupCapital != 23*1000 {
		t.Errorf("capital = %v", bd.BackupCapital)
	}
	// Space now includes 23 backup servers at t2.
	wantSpace := 23*80.0 + 23*90.0
	if math.Abs(bd.Space-wantSpace) > 1e-9 {
		t.Errorf("space = %v, want %v", bd.Space, wantSpace)
	}
	// Secondary latency violations: g1 at t2 sees 25ms → violation;
	// g3 at t2 sees 15ms → violation; plus g3's primary violation.
	if bd.LatencyViolations != 3 {
		t.Errorf("violations = %d, want 3", bd.LatencyViolations)
	}
}

func TestRequiredBackupsSharing(t *testing.T) {
	s := testState(t)
	// g1 (10 srv) primary 0 → secondary 1; g2 (5) primary 1 → secondary 0;
	// g3 (8) primary 0 → secondary 1.
	backups := RequiredBackups(s, 2, []int{0, 1, 0}, []int{1, 0, 1})
	// DC1 backs up groups from DC0 only: 10+8 = 18. DC0 backs up 5.
	if backups[0] != 5 || backups[1] != 18 {
		t.Errorf("backups = %v, want [5 18]", backups)
	}
}

func TestRequiredBackupsMaxOverPrimaries(t *testing.T) {
	s := testState(t)
	s.Groups = append(s.Groups, AppGroup{
		ID: "g4", Servers: 12, UsersByLocation: []int{0, 0}, CurrentDC: "old1",
	})
	s.Target.DCs = append(s.Target.DCs, DataCenter{
		ID: "t3", Location: geo.Location{ID: "loc-t3"}, CapacityServers: 50,
		SpaceCost: stepwise.Flat(70),
	})
	s.Target.LatencyMs = [][]float64{{5, 25, 15}, {25, 5, 15}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// g1 (10) and g3 (8) primary at 0 → secondary 2: demand(0→2) = 18.
	// g2 (5) and g4 (12) primary at 1 → secondary 2: demand(1→2) = 17.
	// Shared pool at 2 = max(18, 17) = 18, NOT 35: single-failure sharing.
	backups := RequiredBackups(s, 3, []int{0, 1, 0, 1}, []int{2, 2, 2, 2})
	if backups[2] != 18 {
		t.Errorf("shared pool = %d, want 18", backups[2])
	}
}

func TestEvaluateAsIs(t *testing.T) {
	s := testState(t)
	bd, err := EvaluateAsIs(s)
	if err != nil {
		t.Fatal(err)
	}
	if bd.DCsUsed != 2 {
		t.Errorf("as-is DCs used = %d, want 2", bd.DCsUsed)
	}
	// g1 at old1: users at u0, lat 5 → fine. g3 at old2: avg (20+5)/2 =
	// 12.5 → violation.
	if bd.LatencyViolations != 1 {
		t.Errorf("as-is violations = %d, want 1", bd.LatencyViolations)
	}
}

func TestEvaluatePlanAndJSON(t *testing.T) {
	s := testState(t)
	plan := &Plan{
		Assignments: []Assignment{
			{GroupID: "g1", PrimaryDC: "t1", SecondaryDC: "t2"},
			{GroupID: "g2", PrimaryDC: "t1", SecondaryDC: "t2"},
			{GroupID: "g3", PrimaryDC: "t2", SecondaryDC: "t1"},
		},
		BackupServers: map[string]int{"t1": 8, "t2": 15},
	}
	bd, err := EvaluatePlan(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	if bd.DCsUsed != 2 || bd.TotalBackupServers != 23 {
		t.Errorf("DCsUsed %d backups %d", bd.DCsUsed, bd.TotalBackupServers)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Assignments) != 3 || back.BackupServers["t2"] != 15 {
		t.Errorf("plan round-trip mismatch: %+v", back)
	}
}

func TestEvaluatePlanErrors(t *testing.T) {
	s := testState(t)
	cases := []struct {
		name string
		plan *Plan
	}{
		{"missing-group", &Plan{Assignments: []Assignment{{GroupID: "g1", PrimaryDC: "t1"}}}},
		{"unknown-dc", &Plan{Assignments: []Assignment{
			{GroupID: "g1", PrimaryDC: "bad"}, {GroupID: "g2", PrimaryDC: "t1"}, {GroupID: "g3", PrimaryDC: "t1"},
		}}},
		{"unknown-secondary", &Plan{Assignments: []Assignment{
			{GroupID: "g1", PrimaryDC: "t1", SecondaryDC: "bad"},
			{GroupID: "g2", PrimaryDC: "t1", SecondaryDC: "t2"},
			{GroupID: "g3", PrimaryDC: "t1", SecondaryDC: "t2"},
		}}},
		{"unknown-backup-dc", &Plan{
			Assignments: []Assignment{
				{GroupID: "g1", PrimaryDC: "t1"}, {GroupID: "g2", PrimaryDC: "t1"}, {GroupID: "g3", PrimaryDC: "t1"},
			},
			BackupServers: map[string]int{"bad": 3},
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := EvaluatePlan(s, tt.plan); err == nil {
				t.Error("EvaluatePlan accepted a broken plan")
			}
		})
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	s := testState(t)
	s.Target.VPNLinkMonthly = [][]float64{{1, 2}, {3, 4}}
	s.Params.VPNLinkCapacityMb = 100
	var buf bytes.Buffer
	if err := WriteState(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || len(back.Groups) != len(s.Groups) || len(back.Target.DCs) != len(s.Target.DCs) {
		t.Fatalf("round-trip mismatch")
	}
	// Spot-check a tiered curve and penalty survive.
	if got := back.Groups[0].LatencyPenalty.PerUser(11); got != 100 {
		t.Errorf("penalty after round-trip = %v", got)
	}
	if got := back.Target.DCs[0].SpaceCost.MustEval(10); got != 800 {
		t.Errorf("space curve after round-trip = %v", got)
	}
	if back.Target.VPNLinkMonthly[1][0] != 3 {
		t.Errorf("VPN matrix lost")
	}
}

func TestReadStateRejectsUnknownFields(t *testing.T) {
	if _, err := ReadState(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Inside a space curve or a latency penalty too: a misspelled
	// "unit_cost" would otherwise price its tier at 0.
	valid, err := json.Marshal(testState(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct{ name, from, to string }{
		{"space-cost", `"space_cost":{"segments":[`, `"space_cost":{"bogus":1,"segments":[`},
		{"segment", `{"width":"inf","unit_cost":`, `{"width":"inf","unit_cots":1,"unit_cost":`},
		{"latency-penalty", `"latency_penalty":{"steps":[`, `"latency_penalty":{"bogus":1,"steps":[`},
		{"step", `{"threshold_ms":10,`, `{"threshold_ms":10,"bogus":1,`},
	} {
		doc := strings.Replace(string(valid), tt.from, tt.to, 1)
		if doc == string(valid) {
			t.Fatalf("%s: %s not in the encoded state", tt.name, tt.from)
		}
		_, err := ReadState(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: error %v, want an unknown field", tt.name, err)
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	s := testState(t)
	bd, err := Evaluate(s, &s.Target, []int{0, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := bd.Summary()
	for _, want := range []string{"total $", "t1", "t2", "violations"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestCheckObjectiveMatches(t *testing.T) {
	if err := CheckObjectiveMatches(1000, 1000.0000001, 1e-6); err != nil {
		t.Errorf("near-equal rejected: %v", err)
	}
	if err := CheckObjectiveMatches(1000, 1100, 1e-6); err == nil {
		t.Error("mismatch accepted")
	}
}

func TestTotalUsers(t *testing.T) {
	g := AppGroup{UsersByLocation: []int{3, 0, 7}}
	if g.TotalUsers() != 10 {
		t.Errorf("TotalUsers = %d", g.TotalUsers())
	}
}

func TestDCIndex(t *testing.T) {
	s := testState(t)
	if s.Target.DCIndex("t2") != 1 || s.Target.DCIndex("zzz") != -1 {
		t.Error("DCIndex wrong")
	}
}

// TestDecodeTablesCoverEveryField: each of the decoder's field tables
// names exactly the keys encoding/json knows for its struct, so a field
// added to a state type without a table entry fails here, not on the
// first document that carries it.
func TestDecodeTablesCoverEveryField(t *testing.T) {
	for _, tt := range []struct {
		typ    reflect.Type
		fields []string
	}{
		{reflect.TypeOf(AsIsState{}), tableNames(stateFields)},
		{reflect.TypeOf(AppGroup{}), tableNames(groupFields)},
		{reflect.TypeOf(Estate{}), tableNames(estateFields)},
		{reflect.TypeOf(DataCenter{}), tableNames(dcFields)},
		{reflect.TypeOf(CostParams{}), tableNames(paramFields)},
		{reflect.TypeOf(geo.Location{}), tableNames(locationFields)},
		{reflect.TypeOf(stepwise.Segment{}), tableNames(segmentFields)},
		{reflect.TypeOf(stepwise.PenaltyStep{}), tableNames(stepFields)},
	} {
		var want []string
		for i := 0; i < tt.typ.NumField(); i++ {
			name, _, _ := strings.Cut(tt.typ.Field(i).Tag.Get("json"), ",")
			want = append(want, name)
		}
		if !slices.Equal(tt.fields, want) {
			t.Errorf("%v: decoder table %q, encoding/json keys %q", tt.typ, tt.fields, want)
		}
	}
}

func tableNames[T any](fields []field[T]) []string {
	var names []string
	for _, f := range fields {
		names = append(names, f.name)
	}
	return names
}
