package stepwise

import (
	"encoding/json"
	"math"
	"testing"
)

func TestCurveJSONRoundTrip(t *testing.T) {
	orig, err := NewCurve([]Segment{
		{Width: 100, UnitCost: 50},
		{Width: math.Inf(1), UnitCost: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	a, b := orig.Segments(), back.Segments()
	if len(a) != len(b) {
		t.Fatalf("segments %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].UnitCost != b[i].UnitCost {
			t.Errorf("segment %d cost %v vs %v", i, a[i].UnitCost, b[i].UnitCost)
		}
		if a[i].Width != b[i].Width && !(math.IsInf(a[i].Width, 1) && math.IsInf(b[i].Width, 1)) {
			t.Errorf("segment %d width %v vs %v", i, a[i].Width, b[i].Width)
		}
	}
}

func TestCurveJSONZeroValue(t *testing.T) {
	var c Curve
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Segments()) != 0 {
		t.Errorf("zero curve round-trip has %d segments", len(back.Segments()))
	}
}

func TestCurveJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"segments":[{"width":-1,"unit_cost":2}]}`,
		`{"segments":[{"width":"huge","unit_cost":2}]}`,
		`{"segments":[{"width":true,"unit_cost":2}]}`,
		`{"segments":[{"width":"inf","unit_cost":2},{"width":1,"unit_cost":2}]}`,
		`{"segments":[{"width":1,"unit_cots":2}]}`,
		`{"segments":[],"tiers":[]}`,
	}
	for _, src := range cases {
		var c Curve
		if err := json.Unmarshal([]byte(src), &c); err == nil {
			t.Errorf("unmarshal %s succeeded, want error", src)
		}
	}
}

func TestLatencyPenaltyJSONRoundTrip(t *testing.T) {
	orig, err := SingleThreshold(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencyPenalty
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.PerUser(11); got != 100 {
		t.Errorf("PerUser after round-trip = %v, want 100", got)
	}
	if got := back.PerUser(9); got != 0 {
		t.Errorf("PerUser(9) = %v, want 0", got)
	}
}

func TestLatencyPenaltyJSONRejectsInvalid(t *testing.T) {
	var p LatencyPenalty
	for _, src := range []string{
		`{"steps":[{"threshold_ms":-2,"penalty_per_user":1}]}`,
		`{"steps":[{"threshold_ms":2,"penalty":1}]}`,
		`{"steps":[],"step":[]}`,
	} {
		if err := json.Unmarshal([]byte(src), &p); err == nil {
			t.Errorf("unmarshal %s succeeded, want error", src)
		}
	}
}
