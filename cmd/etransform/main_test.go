package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
)

func writeTestState(t *testing.T) string {
	t.Helper()
	cfg := datagen.Enterprise1().Scaled(0.1)
	s, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "asis.json")
	if err := model.SaveState(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPlan(t *testing.T) {
	state := writeTestState(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	if _, err := run([]string{"-state", state, "-plan", planPath, "-report=false", "-timelimit", "30s"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(planPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := model.ReadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) == 0 {
		t.Error("empty plan written")
	}
}

func TestRunLPExport(t *testing.T) {
	state := writeTestState(t)
	lpPath := filepath.Join(t.TempDir(), "m.lp")
	mpsPath := filepath.Join(t.TempDir(), "m.mps")
	if _, err := run([]string{"-state", state, "-lp", lpPath, "-mps", mpsPath}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{lpPath, mpsPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s empty", p)
		}
	}
	if data, _ := os.ReadFile(mpsPath); !strings.Contains(string(data), "ENDATA") {
		t.Error("MPS export missing ENDATA")
	}
}

func TestRunPinForbid(t *testing.T) {
	state := writeTestState(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	_, err := run([]string{"-state", state, "-plan", planPath, "-report=false",
		"-pin", "ag-0000=target-3", "-timelimit", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(planPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := model.ReadPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AssignmentFor("ag-0000").PrimaryDC; got != "target-3" {
		t.Errorf("pinned group at %q", got)
	}
}

// TestRunFaultsDegraded: one -faults spec reaches every stage. Failing
// every simplex pivot defeats the exact stage and the LP-rounding
// relaxation, so the plan comes from stage 3; failing the first pivot of
// both exact attempts leaves stage 2 to produce it. Either way the CLI
// must write the plan and report it as degraded (exit code 3 path).
func TestRunFaultsDegraded(t *testing.T) {
	state := writeTestState(t)
	for _, tc := range []struct {
		spec  string
		stage string
		index int
	}{
		{"pivotxall", lp.StageGreedy, 3},
		{"pivotx2", lp.StageRounding, 2},
	} {
		planPath := filepath.Join(t.TempDir(), "plan.json")
		degraded, err := run([]string{"-state", state, "-plan", planPath, "-report=false",
			"-faults", tc.spec, "-timelimit", "30s"})
		if err != nil {
			t.Fatalf("-faults %s: %v", tc.spec, err)
		}
		if !degraded {
			t.Errorf("-faults %s: fault-forced fallback plan not reported degraded", tc.spec)
		}
		f, err := os.Open(planPath)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := model.ReadPlan(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		d := plan.Stats.Degradation
		if d == nil || !d.Degraded || d.Reason == "" {
			t.Fatalf("-faults %s: written plan lacks a degradation report: %+v", tc.spec, d)
		}
		if d.Stage != tc.stage || d.StageIndex != tc.index {
			t.Errorf("-faults %s: stage %s/%d, want %s/%d", tc.spec, d.Stage, d.StageIndex, tc.stage, tc.index)
		}
	}
	if _, err := run([]string{"-state", state, "-faults", "bogus-kind"}); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run([]string{}); err == nil {
		t.Error("missing -state accepted")
	}
	if _, err := run([]string{"-state", "/nonexistent.json"}); err == nil {
		t.Error("missing file accepted")
	}
	state := writeTestState(t)
	if _, err := run([]string{"-state", state, "-pin", "nonsense"}); err == nil {
		t.Error("malformed pin accepted")
	}
	if _, err := run([]string{"-state", state, "-pin", "nope=target-0", "-report=false"}); err == nil {
		t.Error("unknown pin group accepted")
	}
	if _, err := run([]string{"-state", state, "-gap", "NaN", "-report=false"}); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Errorf("-gap NaN: err = %v, want the gap tolerance rejected", err)
	}
}

func TestSplitPair(t *testing.T) {
	if g, d, err := splitPair("a=b"); err != nil || g != "a" || d != "b" {
		t.Errorf("splitPair = %q %q %v", g, d, err)
	}
	for _, bad := range []string{"", "=x", "x=", "nope"} {
		if _, _, err := splitPair(bad); err == nil {
			t.Errorf("splitPair(%q) accepted", bad)
		}
	}
}
