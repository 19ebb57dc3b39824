package milp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/obs"
)

// randomObsModel builds a random knapsack-flavored MILP big enough that
// many seeds genuinely branch (nodes > 0), so the per-worker counters
// have something to reconcile.
func randomObsModel(rng *rand.Rand) *lp.Model {
	m := lp.NewModel("obs-prop")
	n := 8 + rng.Intn(8)
	var terms []lp.Term
	for j := 0; j < n; j++ {
		v := m.AddBinary("", -float64(1+rng.Intn(50)))
		terms = append(terms, lp.Term{Var: v, Coef: float64(1 + rng.Intn(9))})
	}
	m.AddRow("w", terms, lp.LE, float64(n+rng.Intn(2*n)))
	if rng.Intn(2) == 0 {
		var t2 []lp.Term
		for j := 0; j < n; j++ {
			if c := rng.Intn(5) - 1; c != 0 {
				t2 = append(t2, lp.Term{Var: lp.VarID(j), Coef: float64(c)})
			}
		}
		if len(t2) > 0 {
			m.AddRow("w2", t2, lp.LE, float64(n))
		}
	}
	return m
}

// TestObsReconciliation is the metrics/trace/solution reconciliation
// property: across 50 seeded solves at Workers 1 and 4, with root cuts
// (the default) and without (the disableCuts reference), every quantity
// the observability layer reports must agree with the lp.Solution the
// solver returned — same totals, same per-worker split, same incumbent
// count, monotone incumbents, and a (Status, Limit) pair ValidLimit
// accepts. The cuts axis locks the accounting of the root cut phase:
// its LP pivots must reach both Solution.Iterations and the pivot
// counters.
func TestObsReconciliation(t *testing.T) {
	const seeds = 50
	for _, withCuts := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			for seed := int64(1); seed <= seeds; seed++ {
				reconcileSolve(t, workers, seed, withCuts)
			}
		}
	}
}

// reconcileSolve runs one seeded solve of TestObsReconciliation and
// checks every reconciliation the property names.
func reconcileSolve(t *testing.T, workers int, seed int64, withCuts bool) {
	t.Helper()
	m := randomObsModel(rand.New(rand.NewSource(seed)))
	met := obs.NewMetrics()
	sink := &obs.MemorySink{}
	sol, err := Solve(m, &Options{
		Workers:     workers,
		Trace:       obs.NewDeterministic(sink),
		Metrics:     met,
		disableCuts: !withCuts,
	})
	if err != nil {
		t.Fatalf("workers=%d seed=%d cuts=%v: %v", workers, seed, withCuts, err)
	}
	events := sink.Events()
	// Keep the seed in every failure so a property violation
	// replays with one -run invocation.
	fatalf := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("workers=%d seed=%d cuts=%v: %s", workers, seed, withCuts, fmt.Sprintf(format, args...))
	}

	if !lp.ValidLimit(sol.Status, sol.Limit) {
		fatalf("invalid pair (%v, %q)", sol.Status, sol.Limit)
	}

	// Counters mirror the solution's totals exactly.
	if got := met.Counter(obs.MetricMILPSolves); got != 1 {
		fatalf("milp.solves = %d", got)
	}
	if got := met.Counter(obs.MetricMILPNodes); got != int64(sol.Nodes) {
		fatalf("milp.nodes = %d, sol.Nodes = %d", got, sol.Nodes)
	}
	if got := met.Counter(obs.MetricSimplexPivots); got != int64(sol.Iterations) {
		fatalf("simplex.pivots = %d, sol.Iterations = %d", got, sol.Iterations)
	}
	if got := met.Counter(obs.MetricMILPWallMicros); got != sol.WallTime.Microseconds() {
		fatalf("milp.wall_us = %d, sol.WallTime = %v", got, sol.WallTime)
	}
	if got := met.Counter(obs.MetricMILPWorkMicros); got != sol.WorkTime.Microseconds() {
		fatalf("milp.work_us = %d, sol.WorkTime = %v", got, sol.WorkTime)
	}

	// Per-worker node counters reproduce NodesPerWorker, whose
	// entries sum to exactly Nodes (pure-LP passthroughs report
	// Nodes=1 with a nil split and no per-worker counters).
	sum := 0
	for i, n := range sol.NodesPerWorker {
		sum += n
		name := obs.MetricMILPNodesWorkerPrefix + strconv.Itoa(i+1)
		if got := met.Counter(name); got != int64(n) {
			fatalf("%s = %d, NodesPerWorker[%d] = %d", name, got, i, n)
		}
	}
	if sol.NodesPerWorker != nil && sum != sol.Nodes {
		fatalf("NodesPerWorker sums to %d, Nodes = %d", sum, sol.Nodes)
	}

	// Gauges.
	if g, ok := met.Gauge(obs.MetricMILPWorkers); !ok || int(g) != sol.Workers {
		fatalf("milp.workers gauge = %v (%v), sol.Workers = %d", g, ok, sol.Workers)
	}
	if g, ok := met.Gauge(obs.MetricMILPPeakQueue); !ok || int(g) != sol.PeakQueueDepth {
		fatalf("milp.peak_queue_depth gauge = %v (%v), sol = %d", g, ok, sol.PeakQueueDepth)
	}

	// The pivots histogram reconciles with the pivot counter.
	snap := met.Snapshot()
	h, ok := snap.Histograms[obs.MetricHistPivotsPerSolve]
	if !ok {
		fatalf("missing %s histogram", obs.MetricHistPivotsPerSolve)
	}
	if h.Count != met.Counter(obs.MetricSimplexSolves) {
		fatalf("histogram count %d, simplex.solves %d", h.Count, met.Counter(obs.MetricSimplexSolves))
	}
	if int64(h.Sum) != met.Counter(obs.MetricSimplexPivots) {
		fatalf("histogram sum %v, simplex.pivots %d", h.Sum, met.Counter(obs.MetricSimplexPivots))
	}

	// Trace event counts match counters; incumbents are strictly
	// improving; exactly one solve_start/solve_end bracket.
	var starts, ends, incumbents, bounds int
	for _, e := range events {
		switch e.Kind {
		case obs.KindSolveStart:
			starts++
		case obs.KindSolveEnd:
			ends++
			if e.Status != sol.Status.String() {
				fatalf("solve_end status %q, sol %v", e.Status, sol.Status)
			}
		case obs.KindIncumbent:
			incumbents++
		case obs.KindBound:
			bounds++
		}
	}
	if starts != 1 || ends != 1 {
		fatalf("%d solve_start, %d solve_end events", starts, ends)
	}
	if int64(incumbents) != met.Counter(obs.MetricMILPIncumbents) {
		fatalf("%d incumbent events, counter %d", incumbents, met.Counter(obs.MetricMILPIncumbents))
	}
	if int64(bounds) != met.Counter(obs.MetricMILPBoundImprove) {
		fatalf("%d bound events, counter %d", bounds, met.Counter(obs.MetricMILPBoundImprove))
	}
	inc := obs.Incumbents(events)
	for i := 1; i < len(inc); i++ {
		if inc[i] >= inc[i-1] {
			fatalf("incumbents not strictly improving: %v", inc)
		}
	}

	// Work is bounded by workers × wall (with scheduler slack).
	if sol.WorkTime > sol.WallTime*time.Duration(sol.Workers)+10*time.Millisecond {
		fatalf("WorkTime %v exceeds %d × WallTime %v", sol.WorkTime, sol.Workers, sol.WallTime)
	}
}

// TestObsDeterministicReplay solves the same model twice at Workers=1
// with deterministic tracers and requires byte-equal event streams — the
// replay contract behind the CLIs' -trace flag.
func TestObsDeterministicReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		var streams [2][]obs.Event
		for run := 0; run < 2; run++ {
			m := randomObsModel(rand.New(rand.NewSource(seed)))
			sink := &obs.MemorySink{}
			if _, err := Solve(m, &Options{Workers: 1, Trace: obs.NewDeterministic(sink)}); err != nil {
				t.Fatalf("seed=%d run=%d: %v", seed, run, err)
			}
			streams[run] = sink.Events()
		}
		if len(streams[0]) != len(streams[1]) {
			t.Fatalf("seed=%d: %d vs %d events", seed, len(streams[0]), len(streams[1]))
		}
		for i := range streams[0] {
			a, err := json.Marshal(streams[0][i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(streams[1][i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("seed=%d: event %d differs: %s vs %s", seed, i, a, b)
			}
		}
	}
}

// TestTraceRootClosedZeroGap pins the zero-value trace bugfix end to
// end: a solve whose LP relaxation is already integral closes at the
// root with objective 0, 0 nodes and an exactly-zero certified gap —
// and every one of those zeros must appear explicitly in the JSONL
// stream. Before the fix, omitempty dropped all three, making a
// root-closed optimal solve indistinguishable from a gap-unknown one.
func TestTraceRootClosedZeroGap(t *testing.T) {
	m := lp.NewModel("root-closed")
	// min x + y over binaries with a slack cover row: the relaxation's
	// optimum (0,0) is integral, so branch & bound never opens a node.
	x := m.AddBinary("x", 1)
	y := m.AddBinary("y", 1)
	m.AddRow("cap", []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 2)

	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	sol, err := Solve(m, &Options{Workers: 1, Trace: obs.NewDeterministic(sink)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal || sol.Objective != 0 {
		t.Fatalf("status %v objective %v, want optimal 0", sol.Status, sol.Objective)
	}
	if sol.Nodes != 0 || sol.Gap != 0 {
		t.Fatalf("nodes=%d gap=%v, want a root-closed zero-gap solve", sol.Nodes, sol.Gap)
	}
	var end string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, `"kind":"solve_end"`) {
			end = line
		}
	}
	if end == "" {
		t.Fatalf("no solve_end in trace:\n%s", buf.String())
	}
	for _, want := range []string{`"value":0`, `"nodes":0`, `"gap":0`, `"status":"optimal"`} {
		if !strings.Contains(end, want) {
			t.Errorf("solve_end %s misses %s", end, want)
		}
	}

	// The parsed view agrees: presence-aware fields carry the zeros.
	evs, err := obs.Replay(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	last := evs[len(evs)-1]
	if last.Kind != obs.KindSolveEnd {
		t.Fatalf("last event %+v, want solve_end", last)
	}
	if last.Value == nil || *last.Value != 0 || last.Gap == nil || *last.Gap != 0 || last.Nodes == nil || *last.Nodes != 0 {
		t.Fatalf("solve_end zeros lost: %+v", last)
	}
}
