package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/etransform/etransform/internal/model"
)

// acc sums one per-layer quantity over the ops (or probes) that
// reported it.
type acc struct {
	sum float64
	n   int
}

// accs holds per-layer sums by name.
type accs map[string]*acc

func (a accs) add(name string, v float64) {
	x := a[name]
	if x == nil {
		x = &acc{}
		a[name] = x
	}
	x.sum += v
	x.n++
}

func (a accs) sum(name string) float64 {
	if x := a[name]; x != nil {
		return x.sum
	}
	return 0
}

func (a accs) mean(name string) float64 {
	if x := a[name]; x != nil && x.n > 0 {
		return x.sum / float64(x.n)
	}
	return 0
}

func (a accs) merge(b accs) {
	for _, name := range sortedKeys(b) {
		x := a[name]
		if x == nil {
			x = &acc{}
			a[name] = x
		}
		x.sum += b[name].sum
		x.n += b[name].n
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// passResult is what one pass over a workload's ops produced. One client
// owns it; serve-mix merges its clients' results in client order, so the
// floating-point sums are the same on every run. An op is one plan on
// plan-dr and a round of four requests, each delivering a plan, on
// serve-mix.
type passResult struct {
	// wall is the timed phase: the time the client spent inside ops
	// (with two clients, the longer of the two).
	wall      time.Duration
	latencies []float64            // ms, every completed op
	byKind    map[string][]float64 // ms, serve-mix requests by kind
	attempted int
	failed    int
	errors    []string
	plans     int // plans delivered that passed the gate
	proven    int
	planCost  float64
	asIsCost  float64
	nodes     int64 // Σ Plan.Stats.Nodes over the plans a solve produced
	pivots    int64 // Σ Plan.Stats.Iterations over the same plans
	layers    accs
	self      map[string]int64 // self time per layer, ns
	clean     []int            // plan-dr ops whose plan carries no degradation report
}

func newPassResult() *passResult {
	return &passResult{byKind: make(map[string][]float64), layers: make(accs), self: make(map[string]int64)}
}

func (r *passResult) fail(err error) {
	r.attempted++
	r.failed++
	if len(r.errors) < 5 {
		r.errors = append(r.errors, err.Error())
	}
}

// addOp records one completed op; its time is part of the timed phase.
func (r *passResult) addOp(latency time.Duration) {
	r.attempted++
	r.latencies = append(r.latencies, ms(latency))
	r.wall += latency
}

// addPlan records one plan which passed the gate. solved is false for a
// cache hit, which did no solve of its own.
func (r *passResult) addPlan(plan *model.Plan, asIs float64, solved bool) {
	var nodes, pivots int64
	if solved {
		nodes, pivots = int64(plan.Stats.Nodes), int64(plan.Stats.Iterations)
	}
	r.addResult(plan.Stats.Degradation == nil, plan.Cost.Total(), asIs, nodes, pivots)
}

// addResult records one plan which passed the gate, from its cost
// figures alone.
func (r *passResult) addResult(proven bool, cost, asIs float64, nodes, pivots int64) {
	r.plans++
	if proven {
		r.proven++
	}
	r.planCost += cost
	r.asIsCost += asIs
	r.nodes += nodes
	r.pivots += pivots
}

func (r *passResult) addSelfTimes(tr *opTrace) error {
	layers, err := tr.selfTimes()
	if err != nil {
		return err
	}
	for layer, ns := range layers {
		r.self[layer] += ns
	}
	return nil
}

// merge folds b into r; wall is the caller's.
func (r *passResult) merge(b *passResult) {
	r.latencies = append(r.latencies, b.latencies...)
	for _, kind := range sortedKeys(b.byKind) {
		r.byKind[kind] = append(r.byKind[kind], b.byKind[kind]...)
	}
	r.attempted += b.attempted
	r.failed += b.failed
	for _, e := range b.errors {
		if len(r.errors) < 5 {
			r.errors = append(r.errors, e)
		}
	}
	r.plans += b.plans
	r.proven += b.proven
	r.planCost += b.planCost
	r.asIsCost += b.asIsCost
	r.nodes += b.nodes
	r.pivots += b.pivots
	r.layers.merge(b.layers)
	for _, layer := range sortedKeys(b.self) {
		r.self[layer] += b.self[layer]
	}
}

func (r *passResult) opsPerSecond() float64 {
	return ratio(float64(r.attempted-r.failed), r.wall.Seconds())
}

// exactCounts are the pass's work and answers as exact numbers: a
// Workers=1 search is deterministic, so two runs of the same program and
// seed must print the same counts.
type exactCounts struct {
	Ops           int   `json:"ops"`
	Plans         int   `json:"plans"`
	Nodes         int64 `json:"milp_nodes"`
	Pivots        int64 `json:"simplex_pivots"`
	Proven        int   `json:"proven"`
	PlanCostCents int64 `json:"plan_cost_cents"`
	AsIsCostCents int64 `json:"asis_cost_cents"`
}

func (r *passResult) counts() exactCounts {
	return exactCounts{
		Ops: r.attempted, Plans: r.plans, Nodes: r.nodes, Pivots: r.pivots, Proven: r.proven,
		PlanCostCents: int64(math.Round(r.planCost * 100)),
		AsIsCostCents: int64(math.Round(r.asIsCost * 100)),
	}
}

func (c exactCounts) String() string {
	return fmt.Sprintf("ops=%d milp.nodes=%d simplex.pivots=%d proven=%d/%d plan_cost_cents=%d asis_cost_cents=%d",
		c.Ops, c.Nodes, c.Pivots, c.Proven, c.Plans, c.PlanCostCents, c.AsIsCostCents)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(r *passResult, setup float64, rssMB float64) map[string]metric {
	q, _ := tailPercentile(len(r.latencies))
	return map[string]metric{
		"setup_s":         {setup, "s"},
		"ops_per_s":       {r.opsPerSecond(), "ops/s"},
		"latency_ms_p50":  {median(r.latencies), "ms"},
		"latency_ms_tail": {nearestRank(r.latencies, q), "ms"},
		"proven_share":    {ratio(float64(r.proven), float64(r.plans)), "fraction"},
		"cost_ratio":      {ratio(r.planCost, r.asIsCost), "fraction"},
		"peak_rss_mb":     {rssMB, "MB"},
	}
}

// perLayer derives the per-layer metrics of a traced run from its traced
// pass t, the serve side s (the traced pass itself on serve-mix, the
// serve probe on plan-dr), the untraced pass u of the same ops, and the
// request latencies by kind (the untraced pass on serve-mix, the serve
// probe on plan-dr).
func perLayer(t, s, u *passResult, kinds map[string][]float64, serveStats serveCounters) map[string]metric {
	l := t.layers
	nodes := l.sum("milp.nodes")
	pivots := l.sum("simplex.pivots")
	var selfTotal int64
	for _, ns := range t.self {
		selfTotal += ns
	}
	selfShare := func(layer string) metric {
		return metric{ratio(float64(t.self[layer]), float64(selfTotal)), "fraction"}
	}
	sl := s.layers
	return map[string]metric{
		"model.decode_us":          {l.mean("model.decode_us"), "us"},
		"model.canonical_us":       {l.mean("model.canonical_us"), "us"},
		"model.encode_us":          {l.mean("model.encode_us"), "us"},
		"core.build_us":            {l.mean("core.build_us"), "us"},
		"core.solve_us":            {l.mean("core.solve_us"), "us"},
		"core.presearch_us":        {l.mean("core.presearch_us"), "us"},
		"core.root_gap":            {l.mean("core.root_gap"), "fraction"},
		"certify.us":               {l.mean("certify.us"), "us"},
		"milp.nodes":               {nodes, "count"},
		"milp.us_per_node":         {ratio(l.sum("milp.wall_us"), nodes), "us"},
		"milp.incumbents":          {l.sum("milp.incumbents"), "count"},
		"milp.bound_improvements":  {l.sum("milp.bound_improvements"), "count"},
		"milp.peak_queue_depth":    {l.mean("milp.peak_queue_depth"), "count"},
		"milp.gap_mean":            {l.mean("milp.gap"), "fraction"},
		"simplex.root_lp_us":       {l.mean("simplex.root_lp_us"), "us"},
		"simplex.root_lp_pivots":   {l.mean("simplex.root_lp_pivots"), "count"},
		"simplex.pivots":           {pivots, "count"},
		"simplex.pivots_per_node":  {ratio(pivots, nodes), "count"},
		"simplex.us_per_pivot":     {ratio(l.sum("milp.wall_us"), pivots), "us"},
		"simplex.priced_per_pivot": {ratio(l.sum("simplex.priced_candidates"), pivots), "count"},
		"simplex.factorizations":   {l.sum("simplex.factorizations"), "count"},
		"simplex.eta_updates":      {l.sum("simplex.eta_updates"), "count"},
		"simplex.warm_hit_share": {ratio(l.sum("simplex.warm_hits"),
			l.sum("simplex.warm_hits")+l.sum("simplex.warm_misses")), "fraction"},
		"serve.submit_us":       {sl.mean("serve.submit_us"), "us"},
		"serve.queue_wait_us":   {sl.mean("serve.queue_wait_us"), "us"},
		"serve.job_us":          {sl.mean("serve.job_us"), "us"},
		"serve.fetch_us":        {sl.mean("serve.fetch_us"), "us"},
		"serve.hit_ms_p50":      {median(kinds[opHit]), "ms"},
		"serve.cold_ms_p50":     {median(kinds[opCold]), "ms"},
		"serve.replan_ms_p50":   {median(kinds[opReplan]), "ms"},
		"serve.cache_hit_share": {serveStats.cacheHitShare, "fraction"},
		"serve.warm_seeded":     {serveStats.warmSeeded, "count"},
		"serve.rejected":        {serveStats.rejected, "count"},
		"serve.jobs_retained":   {serveStats.jobsRetained, "count"},
		"serve.cache_entries":   {serveStats.cacheEntries, "count"},
		"obs.events_per_job":    {sl.mean("obs.events"), "count"},
		"self.bench_share":      selfShare("bench"),
		"self.model_share":      selfShare("model"),
		"self.core_share":       selfShare("core"),
		"self.milp_share":       selfShare("milp"),
		"self.serve_share":      selfShare("serve"),
		"trace.overhead":        {ratio(t.opsPerSecond(), u.opsPerSecond()), "ratio"},
	}
}
