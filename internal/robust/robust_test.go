package robust

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/geo"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/stepwise"
	"github.com/etransform/etransform/internal/tol"
)

var update = flag.Bool("update", false, "regenerate the golden robustness report")

// testState generates the small scaled enterprise1 state every harness
// test runs against (the same dataset scripts/check.sh smokes).
func testState(t *testing.T) *model.AsIsState {
	t.Helper()
	s, err := datagen.Enterprise1().Scaled(0.05).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tightState is a deliberately capacity-tight instance whose LP
// relaxation is fractional (six groups of 51 servers in all compete for
// two 21-server cheap sites), so the exact stage genuinely branches —
// the only way the node-claim (panic) and budget-check (deadline) fault
// sites ever fire. The root cuts do not close it in any of the batch's
// sampled scenarios. The enterprise1 smoke dataset solves integrally at
// the root and would exercise neither.
func tightState(t *testing.T) *model.AsIsState {
	t.Helper()
	mkDC := func(id string, cap int, space, power, labor, wan float64) model.DataCenter {
		return model.DataCenter{
			ID:                id,
			Location:          geo.Location{ID: "loc-" + id, Region: geo.RegionNorthAmerica},
			CapacityServers:   cap,
			SpaceCost:         stepwise.Flat(space),
			PowerCostPerKWh:   power,
			LaborCostPerAdmin: labor,
			WANCostPerMb:      wan,
		}
	}
	s := &model.AsIsState{
		Name: "tight",
		Groups: []model.AppGroup{
			{ID: "g1", Servers: 11, DataMbPerMonth: 596, UsersByLocation: []int{27, 23}, CurrentDC: "old"},
			{ID: "g2", Servers: 7, DataMbPerMonth: 579, UsersByLocation: []int{27, 23}, CurrentDC: "old"},
			{ID: "g3", Servers: 8, DataMbPerMonth: 944, UsersByLocation: []int{47, 3}, CurrentDC: "old"},
			{ID: "g4", Servers: 5, DataMbPerMonth: 710, UsersByLocation: []int{36, 14}, CurrentDC: "old"},
			{ID: "g5", Servers: 14, DataMbPerMonth: 606, UsersByLocation: []int{17, 33}, CurrentDC: "old"},
			{ID: "g6", Servers: 6, DataMbPerMonth: 978, UsersByLocation: []int{44, 6}, CurrentDC: "old"},
		},
		UserLocations: []geo.Location{{ID: "u0"}, {ID: "u1"}},
		Current: model.Estate{
			DCs:       []model.DataCenter{mkDC("old", 100, 300, 0.25, 9500, 0.06)},
			LatencyMs: [][]float64{{12}, {12}},
		},
		Target: model.Estate{
			DCs: []model.DataCenter{
				mkDC("cheap1", 21, 52, 0.06, 4043, 0.006),
				mkDC("cheap2", 21, 37, 0.07, 4612, 0.005),
				mkDC("dear", 100, 180, 0.18, 9000, 0.04),
			},
			LatencyMs: [][]float64{{7, 19, 20}, {6, 12, 20}},
		},
		Params: model.DefaultParams(),
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// testSpec perturbs all four uncertain input families.
func testSpec() *model.UncertaintySpec {
	return &model.UncertaintySpec{
		Schema:          model.UncertaintySpecSchema,
		PowerPrice:      &model.Distribution{Dist: model.DistLognormal, Mean: 0, StdDev: 0.25, Corr: 0.5},
		TrafficScale:    &model.Distribution{Dist: model.DistTriangular, Min: 0.5, Mode: 1, Max: 2, Corr: 0.3},
		WANTariff:       &model.Distribution{Dist: model.DistUniform, Min: 0.7, Max: 1.5, Corr: 0.8},
		LatencyJitterMs: &model.Distribution{Dist: model.DistNormal, Mean: 0, StdDev: 6, Corr: 0.6},
	}
}

func runBatch(t *testing.T, workers, samples int, seed int64) *Result {
	t.Helper()
	res, err := Run(context.Background(), testState(t), testSpec(), Options{
		Samples:   samples,
		Seed:      seed,
		Workers:   workers,
		CVaRAlpha: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func reportBytes(t *testing.T, r *obs.RobustReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteRobustReport(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunDeterministicAcrossWorkers is the replay contract: one (state,
// spec, seed, N, α) tuple must produce a byte-identical report whether
// the harness fans out over 1 worker or 8. Run under -race this also
// stress-tests the pool.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	a := runBatch(t, 1, 8, 42)
	b := runBatch(t, 8, 8, 42)
	ba, bb := reportBytes(t, a.Report), reportBytes(t, b.Report)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("workers=1 and workers=8 reports differ:\n--- w1\n%s\n--- w8\n%s", ba, bb)
	}
	// And the ranked-plan outcome specifically.
	if a.Report.Chosen != b.Report.Chosen {
		t.Fatalf("chosen plan differs: %q vs %q", a.Report.Chosen, b.Report.Chosen)
	}
	ja, _ := json.Marshal(a.Chosen)
	jb, _ := json.Marshal(b.Chosen)
	if !bytes.Equal(ja, jb) {
		t.Fatal("chosen plan JSON differs across worker counts")
	}
	// A different seed must change the sample set.
	c := runBatch(t, 1, 8, 43)
	if bytes.Equal(ba, reportBytes(t, c.Report)) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestSampledModelsDeterministic locks the sampler itself at the model
// level: the exact sampled states, not just the aggregate report, must
// replay per (seed, index) — the property the phase-2 candidate scoring
// relies on when it regenerates states instead of retaining them.
func TestSampledModelsDeterministic(t *testing.T) {
	s := testState(t)
	spec := testSpec()
	for i := 0; i < 8; i++ {
		a, err := s.Perturb(spec, rand.New(rand.NewSource(sampleSeed(42, i))))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Perturb(spec, rand.New(rand.NewSource(sampleSeed(42, i))))
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("sample %d replayed differently", i)
		}
	}
}

// TestNominalRegretNonNegative is the core optimality property: every
// solved sample's certified optimum is at least as cheap as the nominal
// plan re-costed under that sample, so regret ≥ 0 up to the solver's
// objective tolerance.
func TestNominalRegretNonNegative(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		res := runBatch(t, 4, 6, seed)
		r := res.Report
		if r.SamplesSolved == 0 {
			t.Fatalf("seed %d: no samples solved", seed)
		}
		eps := tol.Objective * math.Max(1, r.NominalCost)
		if !tol.Geq(r.Regret.Min, 0, eps) {
			t.Errorf("seed %d: min nominal regret %v < 0 beyond tolerance %v", seed, r.Regret.Min, eps)
		}
		// The chosen plan can only improve on the nominal plan's scores.
		var nomRank, chosenRank *obs.RankedPlan
		for i := range r.Plans {
			if r.Plans[i].Chosen {
				chosenRank = &r.Plans[i]
			}
			if r.Plans[i].Source == "nominal" {
				nomRank = &r.Plans[i]
			}
		}
		if chosenRank == nil {
			t.Fatalf("seed %d: no chosen plan", seed)
		}
		if nomRank != nil && !tol.Leq(chosenRank.CVaRRegret, nomRank.CVaRRegret, eps) {
			t.Errorf("seed %d: chosen CVaR regret %v worse than nominal %v", seed, chosenRank.CVaRRegret, nomRank.CVaRRegret)
		}
		if chosenRank.Certificate == "" {
			t.Errorf("seed %d: chosen plan has no certificate", seed)
		}
	}
}

// TestFaultedBatchStillReports is the failure-isolation satellite:
// persistently panicking and deadline-expired sample solves must be
// excluded one by one — with their degradation stage and reason — and
// the batch must still emit a valid report with the nominal plan
// standing as the chosen candidate.
func TestFaultedBatchStillReports(t *testing.T) {
	for _, spec := range []string{"panicxall", "deadlinexall"} {
		t.Run(spec, func(t *testing.T) {
			res, err := Run(context.Background(), tightState(t), testSpec(), Options{
				Samples:   4,
				Seed:      42,
				Workers:   4,
				CVaRAlpha: 0.9,
				Faults:    spec,
				FaultSeed: 1,
			})
			if err != nil {
				t.Fatalf("faulted batch aborted: %v", err)
			}
			r := res.Report
			if err := r.Validate(); err != nil {
				t.Fatalf("faulted batch report invalid: %v", err)
			}
			if r.SamplesExcluded != r.Samples {
				t.Fatalf("%d/%d faulted samples excluded, want all", r.SamplesExcluded, r.Samples)
			}
			if len(r.Excluded) != r.Samples {
				t.Fatalf("excluded detail lists %d samples, want %d", len(r.Excluded), r.Samples)
			}
			if r.SamplesDegraded != r.Samples {
				t.Errorf("%d/%d samples marked degraded, want all (the pipeline recovers every fault via a fallback stage)", r.SamplesDegraded, r.Samples)
			}
			for _, ex := range r.Excluded {
				if ex.Stage == "" || ex.Reason == "" {
					t.Errorf("excluded sample %d misses its degradation stage/reason: %+v", ex.Index, ex)
				}
			}
			if len(r.Plans) != 1 || r.Plans[0].Source != "nominal" || !r.Plans[0].Chosen {
				t.Fatalf("faulted batch should rank exactly the nominal plan, got %+v", r.Plans)
			}
			if res.Chosen != res.Nominal {
				t.Error("faulted batch chose a non-nominal plan")
			}
		})
	}
}

// TestRunRecordsMetrics checks the harness counters land in the shared
// registry.
func TestRunRecordsMetrics(t *testing.T) {
	met := obs.NewMetrics()
	opts := Options{Samples: 4, Seed: 42, Workers: 2, CVaRAlpha: 0.9}
	opts.Planner.Solver.Metrics = met
	if _, err := Run(context.Background(), testState(t), testSpec(), opts); err != nil {
		t.Fatal(err)
	}
	if got := met.Counter(obs.MetricRobustSamples); got != 4 {
		t.Errorf("robust.samples = %d, want 4", got)
	}
	solved := met.Counter(obs.MetricRobustSamplesSolved)
	excluded := met.Counter(obs.MetricRobustSamplesExcluded)
	if solved+excluded != 4 {
		t.Errorf("solved %d + excluded %d != 4", solved, excluded)
	}
	if met.Counter(obs.MetricRobustCandidates) < 1 {
		t.Error("no candidates counted")
	}
}

// TestRunRejectsBadOptions covers the argument contract.
func TestRunRejectsBadOptions(t *testing.T) {
	s := testState(t)
	spec := testSpec()
	ctx := context.Background()
	if _, err := Run(ctx, s, spec, Options{Samples: 0}); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Run(ctx, s, spec, Options{Samples: 1, CVaRAlpha: 1}); err == nil {
		t.Error("cvar alpha 1 accepted")
	}
	if _, err := Run(ctx, s, nil, Options{Samples: 1}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := Run(ctx, s, spec, Options{Samples: 1, Faults: "bogus"}); err == nil {
		t.Error("bad fault spec accepted")
	}
	if _, err := Run(ctx, s, &model.UncertaintySpec{}, Options{Samples: 1}); err == nil {
		t.Error("empty spec accepted")
	}
}

// TestGoldenRobustReport locks a 16-sample deterministic-mode report
// byte for byte. Regenerate deliberately with:
//
//	go test ./internal/robust -run TestGoldenRobustReport -update
func TestGoldenRobustReport(t *testing.T) {
	res := runBatch(t, 4, 16, 1)
	got := reportBytes(t, res.Report)
	golden := filepath.Join("testdata", "golden_report.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("robust report drifted from golden fixture (run with -update if intentional)\n--- got\n%s", got)
	}
}
