package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
	"github.com/etransform/etransform/internal/simplex"
)

// setupPlanCosts generates and prices the workload's n estates and keeps
// only their as-is reference costs. Each op generates its estate's state
// bytes again just before it runs (planState), so no pool of inputs
// stays resident and peak RSS is the planner's.
func setupPlanCosts(w workload, seed int64, n int) ([]float64, error) {
	asIs := make([]float64, n)
	for k := range asIs {
		s, _, err := w.planState(seed, k)
		if err != nil {
			return nil, err
		}
		if asIs[k], err = w.asIsCost(s); err != nil {
			return nil, err
		}
	}
	return asIs, nil
}

// planOp is one plan-dr op: state bytes in, plan bytes out, through the
// program's public entry points.
func planOp(ctx context.Context, body []byte, opts core.Options) ([]byte, error) {
	st, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	p, err := core.New(st, opts)
	if err != nil {
		return nil, err
	}
	plan, err := p.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := model.WritePlan(&out, plan); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// runPlanPass runs estates 0..len(asIs)-1 once, in order, as a closed
// loop with one client. The timed phase is the time spent inside ops:
// generating an op's input, the gate and the probes run between ops.
// With traced set, each op records spans, solves with a metrics
// registry, and is followed by the probes; the per-layer numbers land in
// res.layers.
func runPlanPass(ctx context.Context, w workload, seed int64, asIs []float64, traced bool, log *spanLog) *passResult {
	res := newPassResult()
	opts := w.coreOptions()
	for k := range asIs {
		st, body, err := w.planState(seed, k)
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", k, err))
			continue
		}
		var (
			out     []byte
			latency time.Duration
		)
		if traced {
			tr := log.op(k)
			out, err = tracedPlanOp(ctx, tr, body, opts, res.layers)
			if err == nil {
				err = res.addSelfTimes(tr)
			}
			if err == nil {
				latency = time.Duration(tr.spans[0].dur())
			}
			log.add(tr)
		} else {
			t0 := time.Now()
			out, err = planOp(ctx, body, opts)
			latency = time.Since(t0)
		}
		var plan *model.Plan
		if err == nil {
			plan, err = checkPlan(st, out)
		}
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", k, err))
			continue
		}
		res.addOp(latency)
		res.addPlan(plan, asIs[k], true)
		if plan.Stats.Degradation == nil {
			res.clean = append(res.clean, k)
		}
		if traced && k < probeEstates {
			if err := replanProbe(ctx, body, plan, opts, k, res.layers); err != nil {
				res.fail(fmt.Errorf("op %d replan probe: %w", k, err))
			}
		}
	}
	return res
}

// probeEstates is how many of a run's estates the cross-layer probes
// (in-process replans, and serve on plan-dr or in-process solves on
// serve-mix) sample.
const probeEstates = 4

// tracedPlanOp is planOp with a span around every call into a layer and a
// metrics registry on the solve, followed by the probes that sit outside
// the op's span: CanonicalBytes, New + BuildModel, the root LP relaxation
// and CertifyPlan. The milp span is derived from the milp.wall_us counter
// and placed after the pre-search part of the solve (build and warm
// starts: the solve's time minus the core.pipeline_us counter).
//
// The solve copies the registry into plan.Stats.Metrics, which plans
// solved without a registry do not carry; the block is dropped before
// WritePlan, so the traced op encodes the bytes an untraced op does. The
// copy itself stays inside the solve's span, part of trace.overhead.
func tracedPlanOp(ctx context.Context, tr *opTrace, body []byte, opts core.Options, a accs) ([]byte, error) {
	met := obs.NewMetrics()
	opts.Solver.Metrics = met
	t0 := time.Now()
	st, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	p, err := core.New(st, opts)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	plan, err := p.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	plan.Stats.Metrics = nil
	t3 := time.Now()
	var out bytes.Buffer
	if err := model.WritePlan(&out, plan); err != nil {
		return nil, err
	}
	t4 := time.Now()

	root := tr.add(-1, "op", "bench", t0, t4)
	tr.add(root, "model.ReadState", "model", t0, t1)
	tr.add(root, "core.New", "core", t1, t2)
	solve := tr.add(root, "core.SolveContext", "core", t2, t3)
	presearch := t3.Sub(t2) - time.Duration(met.Counter(obs.MetricPipelineMicros))*time.Microsecond
	milpWall := time.Duration(met.Counter(obs.MetricMILPWallMicros)) * time.Microsecond
	tr.derived(solve, "milp.search", "milp", t2.Add(presearch), milpWall)
	tr.add(root, "model.WritePlan", "model", t3, t4)

	a.add("model.decode_us", us(t1.Sub(t0)))
	a.add("model.encode_us", us(t4.Sub(t3)))
	a.add("core.solve_us", us(t3.Sub(t2)))
	a.add("core.presearch_us", us(presearch))
	for _, name := range []string{
		obs.MetricMILPNodes, obs.MetricMILPWallMicros, obs.MetricMILPIncumbents, obs.MetricMILPBoundImprove,
		obs.MetricSimplexPivots, obs.MetricSimplexPricedCandidates, obs.MetricSimplexFactorizations,
		obs.MetricSimplexEtaUpdates,
	} {
		a.add(name, float64(met.Counter(name)))
	}
	peak, _ := met.Gauge(obs.MetricMILPPeakQueue)
	a.add(obs.MetricMILPPeakQueue, peak)
	if plan.Stats.Gap >= 0 {
		a.add("milp.gap", plan.Stats.Gap)
	}

	// Probes.
	c0 := time.Now()
	if _, err := model.CanonicalBytes(st); err != nil {
		return nil, err
	}
	c1 := time.Now()
	tr.probe("model.CanonicalBytes", "model", c0, c1)
	a.add("model.canonical_us", us(c1.Sub(c0)))

	opts.Solver.Metrics = nil
	b0 := time.Now()
	bp, err := core.New(st, opts)
	if err != nil {
		return nil, err
	}
	m, err := bp.BuildModel()
	if err != nil {
		return nil, err
	}
	b1 := time.Now()
	tr.probe("core.New+BuildModel", "core", b0, b1)
	a.add("core.build_us", us(b1.Sub(b0)))

	r0 := time.Now()
	rootLP, err := simplex.Solve(m.Relax(), nil)
	if err != nil {
		return nil, err
	}
	r1 := time.Now()
	tr.probe("simplex.Solve(root)", "simplex", r0, r1)
	a.add("simplex.root_lp_us", us(r1.Sub(r0)))
	a.add("simplex.root_lp_pivots", float64(rootLP.Iterations))
	if cost := plan.Cost.Total(); cost > 0 {
		a.add("core.root_gap", (cost-rootLP.Objective)/cost)
	}

	k0 := time.Now()
	if _, err := p.CertifyPlan(plan); err != nil {
		return nil, err
	}
	k1 := time.Now()
	tr.probe("core.CertifyPlan", "certify", k0, k1)
	a.add("certify.us", us(k1.Sub(k0)))
	return out.Bytes(), nil
}

// replanProbe re-plans estate k in process the way serve's ?prev= path
// does (SeedPlan with the previous plan, basis reuse on), after raising
// one target DC's power price, and records the warm-start hit counters
// that served jobs, which run without a metrics registry, cannot export.
func replanProbe(ctx context.Context, body []byte, prev *model.Plan, opts core.Options, k int, a accs) error {
	st, err := model.ReadState(bytes.NewReader(body))
	if err != nil {
		return err
	}
	applyEdits(st, []edit{{dc: k % len(st.Target.DCs)}})
	met := obs.NewMetrics()
	opts.Solver.Metrics = met
	opts.Solver.ReuseBasis = true
	p, err := core.New(st, opts)
	if err != nil {
		return err
	}
	if err := p.SeedPlan(prev); err != nil {
		return err
	}
	if _, err := p.SolveContext(ctx); err != nil {
		return err
	}
	a.add(obs.MetricSimplexWarmHits, float64(met.Counter(obs.MetricSimplexWarmHits)))
	a.add(obs.MetricSimplexWarmMisses, float64(met.Counter(obs.MetricSimplexWarmMisses)))
	return nil
}

// solveProbe solves client 0's estate k of a serve-mix run in process,
// traced and with a metrics registry, and re-plans it, so the serve-mix
// traced run also reports the layers below serve.
func solveProbe(ctx context.Context, w workload, seed int64, k int, log *spanLog, a accs) error {
	st, err := w.generateEstate(seed, 0, k)
	if err != nil {
		return err
	}
	body, err := encodeState(st)
	if err != nil {
		return err
	}
	opts := w.coreOptions()
	tr := log.op(-1 - k)
	out, err := tracedPlanOp(ctx, tr, body, opts, a)
	if err != nil {
		return err
	}
	log.add(tr)
	plan, err := checkPlan(st, out)
	if err != nil {
		return err
	}
	return replanProbe(ctx, body, plan, opts, k, a)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
