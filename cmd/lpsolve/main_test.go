package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const knapsackLP = `Minimize
 obj: -1 x - 2 y
Subject To
 c: x + y <= 4
Bounds
 0 <= x <= 3
 0 <= y <= 3
End`

func TestRunLPFile(t *testing.T) {
	path := writeFile(t, "m.lp", knapsackLP)
	degraded, err := run([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Error("clean solve reported degraded")
	}
}

func TestRunMPSFile(t *testing.T) {
	path := writeFile(t, "m.mps", `NAME test
ROWS
 N OBJ
 L c
COLUMNS
 x OBJ -1
 x c 1
RHS
 RHS c 4
BOUNDS
 UP BND x 10
ENDATA`)
	if _, err := run([]string{path}); err != nil {
		t.Fatal(err)
	}
}

// TestRunFaultSpec: an always-on corruption fault must turn a clean solve
// into an error (exit 1 path), and a malformed spec must be rejected.
func TestRunFaultSpec(t *testing.T) {
	path := writeFile(t, "m.lp", knapsackLP)
	if _, err := run([]string{"-faults", "corruptxall", path}); err == nil {
		t.Error("corrupted solve succeeded")
	}
	if _, err := run([]string{"-faults", "bogus-kind", path}); err == nil {
		t.Error("malformed fault spec accepted")
	}
}

// TestRunDegradedExit: a node budget too small to close the gap but
// large enough to find an incumbent must surrender it as degraded (exit
// code 3 path). Workers=1 makes the search — and so the incumbent's
// existence at this node count — deterministic. The two-row knapsack
// still branches after the root cuts.
func TestRunDegradedExit(t *testing.T) {
	path := writeFile(t, "m.lp", `Maximize
 obj: 6 a + 7 b + 20 c + 8 d + 10 e + 7 f + 17 g + 16 h + 9 i + 9 j
Subject To
 w0: 4 a + 8 b + 4 c + 4 d + 11 e + 5 f + 5 g + 2 h + 8 i + 5 j <= 28
 w1: 3 a + 3 b + 8 c + 7 d + 4 e + 4 f + 10 g + 10 h + 12 i + 6 j <= 33
Binaries
 a b c d e f g h i j
End`)
	degraded, err := run([]string{"-nodes", "30", "-workers", "1", path})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Error("limit-stopped solve with incumbent not reported degraded")
	}
	// Too few nodes for any incumbent: a clean failure, not a bogus plan.
	if _, err := run([]string{"-nodes", "1", "-workers", "1", path}); err == nil {
		t.Error("no-incumbent limit stop did not fail")
	}
}

// TestRunIterLimitWithoutPointFails: a stalled root LP ends the solve at
// its iteration limit with no point, which is no verdict: exit 1, where
// only an infeasible or unbounded verdict exits 0 without a point.
func TestRunIterLimitWithoutPointFails(t *testing.T) {
	path := writeFile(t, "m.lp", `Maximize
 obj: 5 a + 4 b + 3 c + 7 d
Subject To
 w: 2 a + 3 b + 1 c + 4 d <= 5
Binaries
 a b c d
End`)
	if _, err := run([]string{"-workers", "1", path}); err != nil {
		t.Fatalf("clean solve failed: %v", err)
	}
	if _, err := run([]string{"-workers", "1", "-faults", "stallxall", path}); err == nil {
		t.Error("iteration-limit stop without a point exited 0")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := run([]string{}); err == nil {
		t.Error("no args accepted")
	}
	if _, err := run([]string{"/nonexistent.lp"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeFile(t, "bad.lp", "garbage ] [")
	if _, err := run([]string{bad}); err == nil {
		t.Error("garbage accepted")
	}
}
