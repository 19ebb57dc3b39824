package core

import (
	"testing"

	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/model"
)

// riskState: three identical groups sharing a risk domain, three DCs of
// which one is clearly cheapest — without the constraint all three would
// pack into it.
func riskState(t *testing.T) *model.AsIsState {
	t.Helper()
	s := &model.AsIsState{
		Name: "risk",
		Groups: []model.AppGroup{
			{ID: "pay-a", Servers: 5, UsersByLocation: []int{10}, CurrentDC: "old", SharedRiskGroup: "payments"},
			{ID: "pay-b", Servers: 5, UsersByLocation: []int{10}, CurrentDC: "old", SharedRiskGroup: "payments"},
			{ID: "pay-c", Servers: 5, UsersByLocation: []int{10}, CurrentDC: "old", SharedRiskGroup: "payments"},
			{ID: "other", Servers: 5, UsersByLocation: []int{10}, CurrentDC: "old"},
		},
		UserLocations: []geo.Location{{ID: "u0"}},
		Current: model.Estate{
			DCs:       []model.DataCenter{mkDC("old", 100, 200, 0.1, 8000, 0.05)},
			LatencyMs: [][]float64{{10}},
		},
		Target: model.Estate{
			DCs: []model.DataCenter{
				mkDC("cheap", 100, 20, 0.02, 2000, 0.01),
				mkDC("mid", 100, 60, 0.06, 5000, 0.02),
				mkDC("dear", 100, 90, 0.09, 7000, 0.03),
			},
			LatencyMs: [][]float64{{5, 5, 5}},
		},
		Params: model.DefaultParams(),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSharedRiskSpreadsGroups(t *testing.T) {
	s := riskState(t)
	plan := solvePlan(t, s, Options{})
	seen := map[string]string{}
	for _, a := range plan.Assignments {
		g := findGroupByID(s, a.GroupID)
		if g.SharedRiskGroup == "" {
			// The unconstrained group takes the cheapest site.
			if a.PrimaryDC != "cheap" {
				t.Errorf("free group at %q, want cheap", a.PrimaryDC)
			}
			continue
		}
		if prev, dup := seen[a.PrimaryDC]; dup {
			t.Errorf("risk domain co-located at %q (%s and %s)", a.PrimaryDC, prev, a.GroupID)
		}
		seen[a.PrimaryDC] = a.GroupID
	}
	if len(seen) != 3 {
		t.Errorf("payments groups spread over %d DCs, want 3", len(seen))
	}
	if plan.Cost.SharedRiskViolations != 0 {
		t.Errorf("plan reports %d risk violations", plan.Cost.SharedRiskViolations)
	}
}

func TestSharedRiskWithDR(t *testing.T) {
	s := riskState(t)
	plan := solvePlan(t, s, Options{DR: true})
	seen := map[string]bool{}
	for _, a := range plan.Assignments {
		g := findGroupByID(s, a.GroupID)
		if g.SharedRiskGroup == "" {
			continue
		}
		if seen[a.PrimaryDC] {
			t.Errorf("risk domain co-located at %q under DR", a.PrimaryDC)
		}
		seen[a.PrimaryDC] = true
		if a.SecondaryDC == a.PrimaryDC {
			t.Errorf("group %q has identical primary and secondary", a.GroupID)
		}
	}
}

func TestSharedRiskValidation(t *testing.T) {
	s := riskState(t)
	// Four members of one domain into three DCs cannot be separated.
	s.Groups[3].SharedRiskGroup = "payments"
	if err := s.Validate(); err == nil {
		t.Error("oversubscribed risk domain accepted")
	}
}

func TestSharedRiskEvaluatorCounts(t *testing.T) {
	s := riskState(t)
	// Co-locate two payments groups deliberately.
	bd, err := model.Evaluate(s, &s.Target, []int{0, 0, 1, 0}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bd.SharedRiskViolations != 1 {
		t.Errorf("violations = %d, want 1", bd.SharedRiskViolations)
	}
	bd, err = model.Evaluate(s, &s.Target, []int{0, 0, 0, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bd.SharedRiskViolations != 2 {
		t.Errorf("violations = %d, want 2 (three co-located members)", bd.SharedRiskViolations)
	}
}

func findGroupByID(s *model.AsIsState, id string) *model.AppGroup {
	for i := range s.Groups {
		if s.Groups[i].ID == id {
			return &s.Groups[i]
		}
	}
	return nil
}
