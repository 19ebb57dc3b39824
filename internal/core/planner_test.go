package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/stepwise"
)

// mkDC builds a flat-priced data center.
func mkDC(id string, capacity int, space, power, labor, wan float64) model.DataCenter {
	return model.DataCenter{
		ID:                id,
		Location:          geo.Location{ID: "loc-" + id, Region: geo.RegionNorthAmerica},
		CapacityServers:   capacity,
		SpaceCost:         stepwise.Flat(space),
		PowerCostPerKWh:   power,
		LaborCostPerAdmin: labor,
		WANCostPerMb:      wan,
	}
}

// twoDCState: one cheap far DC, one expensive near DC, two user locations.
func twoDCState(t *testing.T, penalty float64) *model.AsIsState {
	t.Helper()
	pen, err := stepwise.SingleThreshold(10, penalty)
	if err != nil {
		t.Fatal(err)
	}
	s := &model.AsIsState{
		Name: "two-dc",
		Groups: []model.AppGroup{
			{ID: "sensitive", Servers: 10, DataMbPerMonth: 100, UsersByLocation: []int{100, 0}, LatencyPenalty: pen, CurrentDC: "old"},
			{ID: "insensitive", Servers: 20, DataMbPerMonth: 200, UsersByLocation: []int{0, 50}, CurrentDC: "old"},
		},
		UserLocations: []geo.Location{{ID: "u0"}, {ID: "u1"}},
		Current: model.Estate{
			DCs:       []model.DataCenter{mkDC("old", 100, 200, 0.2, 9000, 0.05)},
			LatencyMs: [][]float64{{12}, {12}},
		},
		Target: model.Estate{
			DCs: []model.DataCenter{
				mkDC("cheap", 100, 50, 0.05, 5000, 0.01), // far from u0
				mkDC("near", 100, 150, 0.15, 9000, 0.03), // near u0
			},
			LatencyMs: [][]float64{{25, 5}, {5, 25}},
		},
		Params: model.DefaultParams(),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func solvePlan(t *testing.T, s *model.AsIsState, opts Options) *model.Plan {
	t.Helper()
	p, err := New(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestPlannerPlacesByLatencyPenalty(t *testing.T) {
	// High penalty: the sensitive group must sit near its users despite
	// the higher site cost; the insensitive group goes to the cheap DC.
	s := twoDCState(t, 1000)
	plan := solvePlan(t, s, Options{})
	if got := plan.AssignmentFor("sensitive").PrimaryDC; got != "near" {
		t.Errorf("sensitive group placed at %q, want near", got)
	}
	if got := plan.AssignmentFor("insensitive").PrimaryDC; got != "cheap" {
		t.Errorf("insensitive group placed at %q, want cheap", got)
	}
	if plan.Cost.LatencyViolations != 0 {
		t.Errorf("violations = %d, want 0", plan.Cost.LatencyViolations)
	}

	// Zero penalty: everything consolidates into the cheap DC.
	s2 := twoDCState(t, 0)
	plan2 := solvePlan(t, s2, Options{})
	for _, a := range plan2.Assignments {
		if a.PrimaryDC != "cheap" {
			t.Errorf("group %q placed at %q, want cheap", a.GroupID, a.PrimaryDC)
		}
	}
}

func TestPlannerObjectiveMatchesHandComputation(t *testing.T) {
	s := twoDCState(t, 0)
	plan := solvePlan(t, s, Options{})
	p := &s.Params
	dc := &s.Target.DCs[0]
	want := 0.0
	for i := range s.Groups {
		g := &s.Groups[i]
		want += float64(g.Servers) * (dc.SpaceCost.UnitCostAt(0) + model.ServerMonthlyCost(dc, p))
		want += g.DataMbPerMonth * dc.WANCostPerMb
	}
	if math.Abs(plan.Cost.Total()-want) > 1e-6*want {
		t.Errorf("total = %v, want %v", plan.Cost.Total(), want)
	}
}

func TestPlannerRespectsCapacity(t *testing.T) {
	s := twoDCState(t, 0)
	s.Target.DCs[0].CapacityServers = 25 // cheap DC can't hold both (10+20)
	plan := solvePlan(t, s, Options{})
	// The bigger group (20 servers) should take the cheap DC; accounting
	// must show both DCs used and capacities respected (Evaluate enforces).
	if plan.Cost.DCsUsed != 2 {
		t.Errorf("DCs used = %d, want 2", plan.Cost.DCsUsed)
	}
}

func TestPlannerInfeasibleCapacity(t *testing.T) {
	s := twoDCState(t, 0)
	// The 10-server group fits only in DC0 (DC1 holds 9), the 20-server
	// group fits only in DC0 too — but 30 > 25. Validation passes (the
	// largest DC holds each group individually); packing must fail.
	s.Target.DCs[0].CapacityServers = 25
	s.Target.DCs[1].CapacityServers = 9
	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestPinAndForbid(t *testing.T) {
	s := twoDCState(t, 0)
	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Pin("insensitive", "near"); err != nil {
		t.Fatal(err)
	}
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AssignmentFor("insensitive").PrimaryDC; got != "near" {
		t.Errorf("pinned group at %q, want near", got)
	}

	if err := p.Forbid("sensitive", "cheap"); err != nil {
		t.Fatal(err)
	}
	plan, err = p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AssignmentFor("sensitive").PrimaryDC; got != "near" {
		t.Errorf("forbidden group at %q, want near", got)
	}

	// Error paths.
	if err := p.Pin("nope", "near"); err == nil {
		t.Error("pin of unknown group accepted")
	}
	if err := p.Pin("sensitive", "nope"); err == nil {
		t.Error("pin to unknown DC accepted")
	}
	if err := p.Forbid("sensitive", "nope"); err == nil {
		t.Error("forbid of unknown DC accepted")
	}
	if err := p.Pin("sensitive", "cheap"); err == nil {
		t.Error("pin to forbidden DC accepted")
	}
	if err := p.Forbid("insensitive", "near"); err == nil {
		t.Error("forbid of pinned DC accepted")
	}
}

func TestRegionConstraint(t *testing.T) {
	s := twoDCState(t, 0)
	s.Target.DCs[1].Location.Region = geo.RegionEurope
	s.Groups[1].AllowedRegions = []geo.Region{geo.RegionEurope}
	plan := solvePlan(t, s, Options{})
	if got := plan.AssignmentFor("insensitive").PrimaryDC; got != "near" {
		t.Errorf("region-constrained group at %q, want near (EU)", got)
	}
}

func TestVolumeDiscountDrivesConsolidation(t *testing.T) {
	s := twoDCState(t, 0)
	// Two equally-priced DCs, but tiered pricing rewards concentration.
	curve, err := stepwise.VolumeDiscount(100, 15, 40, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range s.Target.DCs {
		s.Target.DCs[j].SpaceCost = curve
		s.Target.DCs[j].PowerCostPerKWh = 0.1
		s.Target.DCs[j].LaborCostPerAdmin = 6000
		s.Target.DCs[j].WANCostPerMb = 0.01
	}
	s.Target.LatencyMs = [][]float64{{5, 5}, {5, 5}}
	plan := solvePlan(t, s, Options{})
	if plan.Cost.DCsUsed != 1 {
		t.Fatalf("volume discount should consolidate into 1 DC, used %d", plan.Cost.DCsUsed)
	}
	// 30 servers at one DC: 15×100 + 15×60 = 2400 space.
	if math.Abs(plan.Cost.Space-2400) > 1e-6 {
		t.Errorf("space = %v, want 2400 (tiered)", plan.Cost.Space)
	}
}

func TestConcaveCurveNotUndercharged(t *testing.T) {
	// With a concave curve and NO fill-order binaries an LP would price
	// all units at the cheapest tier. The planner's self-check
	// (LP objective vs evaluator) would fail if the encoding were wrong;
	// additionally verify the space charge matches the curve exactly.
	s := twoDCState(t, 0)
	curve, err := stepwise.VolumeDiscount(100, 5, 50, 0, 2) // 5@100 then 50
	if err != nil {
		t.Fatal(err)
	}
	s.Target.DCs[0].SpaceCost = curve
	plan := solvePlan(t, s, Options{})
	var atCheap int
	for i := range s.Groups {
		if plan.AssignmentFor(s.Groups[i].ID).PrimaryDC == "cheap" {
			atCheap += s.Groups[i].Servers
		}
	}
	wantSpace := curve.MustEval(float64(atCheap))
	gotCheapSpace := plan.Cost.PerDC["cheap"].Space
	if math.Abs(gotCheapSpace-wantSpace) > 1e-6 {
		t.Errorf("cheap DC space = %v, want %v for %d servers", gotCheapSpace, wantSpace, atCheap)
	}
}

func TestDRPlanBasics(t *testing.T) {
	s := twoDCState(t, 0)
	plan := solvePlan(t, s, Options{DR: true})
	for _, a := range plan.Assignments {
		if a.SecondaryDC == "" {
			t.Fatalf("group %q has no secondary", a.GroupID)
		}
		if a.SecondaryDC == a.PrimaryDC {
			t.Fatalf("group %q has identical primary and secondary", a.GroupID)
		}
	}
	if plan.Cost.TotalBackupServers == 0 {
		t.Error("no backup servers provisioned")
	}
	if plan.Stats.Formulation != "pair" {
		t.Errorf("formulation = %q", plan.Stats.Formulation)
	}
}

func TestDRBackupSharing(t *testing.T) {
	// Three DCs; two groups in different primaries sharing one backup
	// site need only max(S1, S2) backups, not the sum.
	s := &model.AsIsState{
		Name: "share",
		Groups: []model.AppGroup{
			{ID: "a", Servers: 10, UsersByLocation: []int{1}, CurrentDC: "old"},
			{ID: "b", Servers: 8, UsersByLocation: []int{1}, CurrentDC: "old"},
		},
		UserLocations: []geo.Location{{ID: "u0"}},
		Current: model.Estate{
			DCs:       []model.DataCenter{mkDC("old", 100, 100, 0.1, 6000, 0.02)},
			LatencyMs: [][]float64{{5}},
		},
		Target: model.Estate{
			DCs: []model.DataCenter{
				mkDC("d0", 10, 10, 0.01, 1000, 0.001),
				mkDC("d1", 10, 12, 0.01, 1000, 0.001),
				mkDC("d2", 20, 11, 0.01, 1000, 0.001),
			},
			LatencyMs: [][]float64{{5, 5, 5}},
		},
		Params: model.DefaultParams(),
	}
	s.Params.DRServerCost = 100000 // make backup capital dominate
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := solvePlan(t, s, Options{DR: true})
	// Optimal under expensive DR servers: primaries in two DCs (capacity
	// forces a 10 and an 8 apart anyway), both secondaries at the third →
	// shared pool of max(10,8) = 10, not 18.
	if plan.Cost.TotalBackupServers != 10 {
		t.Errorf("backup servers = %d, want 10 (shared single-failure pool)", plan.Cost.TotalBackupServers)
	}
}

func TestOmegaSpreadsGroups(t *testing.T) {
	s := twoDCState(t, 0)
	// Without ω both groups pack into "cheap"; ω=0.5 allows at most 1 of
	// 2 groups per DC.
	plan := solvePlan(t, s, Options{DR: false, Omega: 0.5})
	if plan.Cost.DCsUsed != 2 {
		t.Fatalf("omega=0.5 should spread across 2 DCs, used %d", plan.Cost.DCsUsed)
	}
}

func TestVPNWANMode(t *testing.T) {
	s := twoDCState(t, 0)
	// Dedicated links: cheap DC is far (expensive links), near DC close.
	s.Target.VPNLinkMonthly = [][]float64{
		{5000, 5000}, // links from "cheap"
		{100, 100},   // links from "near"
	}
	s.Params.VPNLinkCapacityMb = 10
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	plan := solvePlan(t, s, Options{})
	// Link counts: sensitive 100Mb/10 = 10 links; insensitive 200/10=20.
	// From cheap: (10+20)×5000 ≫ site savings → both go near.
	for _, a := range plan.Assignments {
		if a.PrimaryDC != "near" {
			t.Errorf("group %q at %q, want near under VPN pricing", a.GroupID, a.PrimaryDC)
		}
	}
}

func TestWriteLPAndExternalSolveAgree(t *testing.T) {
	s := twoDCState(t, 500)
	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteLP(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := lp.ParseLP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse exported LP: %v", err)
	}
	extSol, err := milp.Solve(parsed, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(extSol.Objective-plan.Cost.Total()) > 1e-4*math.Max(1, plan.Cost.Total()) {
		t.Errorf("external solve of exported LP: %v, planner: %v", extSol.Objective, plan.Cost.Total())
	}
}

func TestNewValidation(t *testing.T) {
	s := twoDCState(t, 0)
	if _, err := New(s, Options{Omega: math.NaN()}); err == nil || !strings.Contains(err.Error(), "omega") {
		t.Errorf("NaN omega: err = %v, want an error naming omega", err)
	}
	for _, g := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(s, Options{Solver: milp.Options{GapTol: g}}); err == nil || !strings.Contains(err.Error(), "gap") {
			t.Errorf("GapTol %v: err = %v, want an error naming the gap", g, err)
		}
	}
	s.Target.DCs = s.Target.DCs[:1]
	s.Target.LatencyMs = [][]float64{{25}, {5}}
	if _, err := New(s, Options{DR: true}); err == nil {
		t.Error("DR with one DC accepted")
	}
	bad := &model.AsIsState{}
	if _, err := New(bad, Options{}); err == nil {
		t.Error("invalid state accepted")
	}
}

// randomState builds a random small estate for property tests.
func randomState(rng *rand.Rand, groups, dcs, users int, dr bool) *model.AsIsState {
	s := &model.AsIsState{
		Name:   "prop",
		Params: model.DefaultParams(),
	}
	s.Params.DRServerCost = float64(rng.Intn(5000))
	for u := 0; u < users; u++ {
		s.UserLocations = append(s.UserLocations, geo.Location{ID: fmt.Sprintf("u%d", u)})
	}
	capTotal := 0
	for j := 0; j < dcs; j++ {
		c := 30 + rng.Intn(60)
		capTotal += c
		s.Target.DCs = append(s.Target.DCs, mkDC(fmt.Sprintf("d%d", j), c,
			float64(20+rng.Intn(200)), 0.03+rng.Float64()*0.2,
			float64(3000+rng.Intn(7000)), 0.005+rng.Float64()*0.05))
	}
	s.Target.LatencyMs = make([][]float64, users)
	for u := range s.Target.LatencyMs {
		row := make([]float64, dcs)
		for j := range row {
			row[j] = float64(2 + rng.Intn(30))
		}
		s.Target.LatencyMs[u] = row
	}
	s.Current = model.Estate{
		DCs:       []model.DataCenter{mkDC("old", 10000, 300, 0.2, 9000, 0.08)},
		LatencyMs: make([][]float64, users),
	}
	for u := range s.Current.LatencyMs {
		s.Current.LatencyMs[u] = []float64{15}
	}
	for i := 0; i < groups; i++ {
		g := model.AppGroup{
			ID:              fmt.Sprintf("g%d", i),
			Servers:         1 + rng.Intn(10),
			DataMbPerMonth:  float64(rng.Intn(2000)),
			UsersByLocation: make([]int, users),
			CurrentDC:       "old",
		}
		for u := range g.UsersByLocation {
			g.UsersByLocation[u] = rng.Intn(40)
		}
		if rng.Intn(2) == 0 {
			pen, err := stepwise.SingleThreshold(float64(5+rng.Intn(15)), float64(rng.Intn(200)))
			if err != nil {
				panic(err)
			}
			g.LatencyPenalty = pen
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}

// TestAggregationExact checks that merging identical groups into
// integer-count columns is exact and shrinks the model: on estates of
// duplicated groups, DR off and on, the planner's optimum at GapTol
// 1e-12 equals the brute-force optimum, and the model has fewer columns
// than one per group and placement.
func TestAggregationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		base := randomState(rng, 3, 3, 2, false)
		// Duplicate each group to create aggregation fodder; two copies
		// keep the brute-force enumeration small.
		var groups []model.AppGroup
		for i := range base.Groups {
			copies := 2
			for c := 0; c < copies; c++ {
				g := base.Groups[i]
				g.ID = fmt.Sprintf("%s_c%d", g.ID, c)
				g.UsersByLocation = append([]int(nil), g.UsersByLocation...)
				groups = append(groups, g)
			}
		}
		base.Groups = groups
		// Ensure capacity suffices.
		for j := range base.Target.DCs {
			base.Target.DCs[j].CapacityServers += 100
		}
		if err := base.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dr := rng.Intn(2) == 0
		want, _ := oracleOptimum(t, base, dr, false)
		plan := solvePlan(t, base, Options{DR: dr, Solver: milp.Options{GapTol: 1e-12, Workers: 1}})
		if got := plan.Cost.Total(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d (dr=%v): planner optimum %.6f, brute force %.6f", trial, dr, got, want)
		}
		// One column per group and placement, (primary) or (primary,
		// secondary), is what the model would have without aggregation.
		n := len(base.Target.DCs)
		perGroup := n
		if dr {
			perGroup = n * (n - 1)
		}
		if !plan.Stats.Aggregated || plan.Stats.Cols >= len(base.Groups)*perGroup {
			t.Errorf("trial %d (dr=%v): %d cols, want fewer than %d groups × %d placements",
				trial, dr, plan.Stats.Cols, len(base.Groups), perGroup)
		}
	}
}

// TestCandidatePruning checks that pruning keeps solutions close to
// optimal and that an infeasible pruned model is retried unpruned.
func TestCandidatePruning(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	s := randomState(rng, 8, 5, 2, false)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	full := solvePlan(t, s, Options{})
	pruned := solvePlan(t, s, Options{CandidateK: 2})
	if pruned.Cost.Total() < full.Cost.Total()-1e-6 {
		t.Errorf("pruned (%v) beat full (%v): impossible", pruned.Cost.Total(), full.Cost.Total())
	}
	if pruned.Stats.CandidatesK != 2 {
		t.Errorf("stats K = %d", pruned.Stats.CandidatesK)
	}

	// Force pruning infeasibility: every group's cheapest DC is the same
	// tiny one; K=1 packs them all there and fails, triggering a retry.
	s2 := twoDCState(t, 0)
	s2.Target.DCs[0].CapacityServers = 21 // fits either group alone, not both
	plan := solvePlan(t, s2, Options{CandidateK: 1})
	if plan.Cost.DCsUsed != 2 {
		t.Errorf("pruning retry should spread to 2 DCs, used %d", plan.Cost.DCsUsed)
	}
	if plan.Stats.CandidatesK != 0 {
		t.Errorf("retry stats should record K=0 (unpruned), got %d", plan.Stats.CandidatesK)
	}
}

// TestSelfCheckObjective: the decode self-check compares LP objective to
// the evaluator on every solve; run a batch of random instances through
// all option combinations to exercise it.
func TestSelfCheckAcrossOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 10
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		s := randomState(rng, 4, 3, 2, true)
		// Mix in a tiered curve.
		curve, err := stepwise.VolumeDiscount(float64(100+rng.Intn(100)), 20, 20, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Target.DCs[0].SpaceCost = curve
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, opt := range []Options{
			{},
			{DR: true},
			{DR: true, Omega: 0.75},
		} {
			plan := solvePlan(t, s, opt)
			if plan.Cost.Total() <= 0 {
				t.Errorf("trial %d opts %+v: nonpositive cost", trial, opt)
			}
		}
	}
}

func TestBuildModelStats(t *testing.T) {
	s := twoDCState(t, 100)
	p, err := New(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	// 2 groups × 2 DCs = 4 binaries; 2 assignment + 2 capacity rows.
	if m.NumVars() != 4 || m.NumRows() != 4 {
		t.Errorf("model dims %d×%d, want 4 vars × 4 rows: %s", m.NumVars(), m.NumRows(), m.Stats())
	}
}
