package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests check the output against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runShort runs a workload in its short mode (-seconds 1) and decodes
// the last line of the output.
func runShort(t *testing.T, workload string, trace int, out string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace), "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v\n%s", workload, trace, err, stdout.String())
	}
	return r, stdout.String()
}

// TestShortModePrintsEveryMetric runs every workload of BENCHMARK.json
// untraced and traced: each must pass its correctness gate and print
// exactly the metrics BENCHMARK.json lists, with their units and finite
// values.
func TestShortModePrintsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	out := t.TempDir()
	for _, w := range s.Workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{s.EndToEnd, s.PerLayer} {
			r, text := runShort(t, w.Name, trace, out)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, r.Correct, r.Attempted, r.Failed, text)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%d: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if trace == 0 {
				for _, m := range s.EndToEnd {
					if r.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
		}
	}
}

// TestGateRejectsTamperedPlans: the gate passes the planner's own plan
// and rejects the same plan with a group moved to another data center,
// without its certificate, or with a different reported cost.
func TestGateRejectsTamperedPlans(t *testing.T) {
	w, _ := findWorkload("plan-dr")
	st, err := w.generateEstate(DefaultSeed, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	planBytes, err := planOp(context.Background(), body, w.coreOptions())
	if err != nil {
		t.Fatal(err)
	}
	decode := func() map[string]any {
		var v map[string]any
		if err := json.Unmarshal(planBytes, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	check := func(v map[string]any) error {
		_, err := checkPlan(st, mustEncode(t, v))
		return err
	}
	if err := check(decode()); err != nil {
		t.Fatalf("gate rejects the planner's own plan: %v", err)
	}

	moved := decode()
	a := moved["assignments"].([]any)[0].(map[string]any)
	for _, dc := range st.Target.DCs {
		if dc.ID != a["primary_dc"] {
			a["primary_dc"] = dc.ID
			break
		}
	}
	if err := check(moved); err == nil {
		t.Error("gate accepts a plan with a group moved to another data center")
	}

	uncertified := decode()
	delete(uncertified["stats"].(map[string]any), "certificate")
	if err := check(uncertified); err == nil {
		t.Error("gate accepts a plan without a certificate")
	}

	cheaper := decode()
	c := cheaper["cost"].(map[string]any)
	c["space"] = c["space"].(float64) * 0.9
	if err := check(cheaper); err == nil {
		t.Error("gate accepts a plan whose reported cost its assignment does not reproduce")
	}
}

// TestGeneratorDeterministic: a seed gives byte-identical inputs and a
// byte-identical serve-mix op sequence; another seed gives other
// estates.
func TestGeneratorDeterministic(t *testing.T) {
	w, _ := findWorkload("plan-dr")
	for k := 0; k < 3; k++ {
		_, a, err := w.planState(5, k)
		if err != nil {
			t.Fatal(err)
		}
		_, b, _ := w.planState(5, k)
		_, c, _ := w.planState(6, k)
		if !bytes.Equal(a, b) {
			t.Errorf("plan-dr estate %d differs between two generations with one seed", k)
		}
		if bytes.Equal(a, c) {
			t.Errorf("plan-dr estate %d is the same under seeds 5 and 6", k)
		}
	}
	a, _ := setupPlanCosts(w, 5, 3)
	b, _ := setupPlanCosts(w, 5, 3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("plan-dr as-is costs differ between two set-ups with one seed: %v %v", a, b)
	}

	w, _ = findWorkload("serve-mix")
	ctx := context.Background()
	trails := func(seed int64) [][]string {
		refs, err := fidelityRefs(ctx, w, seed)
		if err != nil {
			t.Fatal(err)
		}
		s := startServer(w)
		defer s.close()
		res, clients := runMixPass(ctx, w, seed, s, refs, 8, nil, 0)
		if res.failed != 0 {
			t.Fatalf("serve-mix pass failed: %v", res.errors)
		}
		var out [][]string
		for _, c := range clients {
			out = append(out, c.trail)
		}
		return out
	}
	first, second := trails(5), trails(5)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("serve-mix op sequence differs between two runs of one seed:\n%v\n%v", first, second)
	}
	for _, kind := range []string{opHit, opCold, opReplan} {
		if !strings.Contains(strings.Join(first[0], " "), kind+":") {
			t.Errorf("8 rounds of client 0 contain no %s request: %v", kind, first[0])
		}
	}
	e5, _ := w.generateEstate(5, 0, 0)
	e6, _ := w.generateEstate(6, 0, 0)
	if bytes.Equal(mustEncode(t, e5), mustEncode(t, e6)) {
		t.Error("serve-mix estate 0 is the same under seeds 5 and 6")
	}
}

func mustEncode(t *testing.T, s any) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCountsCheck: a second run of the same binary, seed and length
// with other counts fails and says so.
func TestCountsCheck(t *testing.T) {
	w, _ := findWorkload("plan-dr")
	o := options{workload: w, seed: 1, seconds: 1, out: t.TempDir()}
	first := &report{opts: o, counts: exactCounts{Ops: 3, Nodes: 10}}
	if err := first.checkCounts(o); err != nil || !first.correct() {
		t.Fatalf("first run: err=%v correct=%v", err, first.correct())
	}
	same := &report{opts: o, counts: first.counts}
	if err := same.checkCounts(o); err != nil || !same.correct() {
		t.Fatalf("matching run: err=%v correct=%v", err, same.correct())
	}
	other := &report{opts: o, counts: exactCounts{Ops: 3, Nodes: 11}}
	if err := other.checkCounts(o); err != nil {
		t.Fatal(err)
	}
	if other.correct() || len(other.errors) == 0 || !strings.Contains(other.errors[0], "differ") {
		t.Errorf("differing counts not reported: correct=%v errors=%v", other.correct(), other.errors)
	}
}

// TestSelfTimes: self times sum to the op's latency, and a child that
// outlasts its parent is an error.
func TestSelfTimes(t *testing.T) {
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &opTrace{base: base}
	root := tr.add(-1, "op", "bench", at(0), at(10))
	solve := tr.add(root, "solve", "core", at(1), at(9))
	tr.derived(solve, "search", "milp", at(2), 6*time.Millisecond)
	tr.probe("probe", "certify", at(10), at(20))
	layers, err := tr.selfTimes()
	if err != nil {
		t.Fatal(err)
	}
	// The op took 10 ms: 2 outside the solve, 2 in it outside the search.
	want := map[string]int64{"bench": 2e6, "core": 2e6, "milp": 6e6}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("self times %v, want %v", layers, want)
	}
	tr.add(root, "late", "model", at(5), at(12))
	if _, err := tr.selfTimes(); err == nil {
		t.Error("children outlasting their parent not reported")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		q     float64
		above int
	}{{2400, 99, 24}, {1000, 99, 10}, {390, 95, 19}, {225, 95, 11}, {27, 50, 13}} {
		if q, above := tailPercentile(c.n); q != c.q || above != c.above {
			t.Errorf("n=%d: p%g with %d above, want p%g with %d", c.n, q, above, c.q, c.above)
		}
	}
}
