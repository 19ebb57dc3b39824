package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// Metric names recorded by the instrumented solver layers. Centralizing
// them here keeps producers (simplex, milp, core, faultinject) and
// consumers (tests, BENCH reports, DESIGN.md) on one taxonomy.
const (
	// Counters folded once per simplex solve.
	MetricSimplexSolves     = "simplex.solves"
	MetricSimplexPivots     = "simplex.pivots"
	MetricSimplexPhase1     = "simplex.phase1_pivots"
	MetricSimplexDegenerate = "simplex.degenerate_pivots"
	MetricSimplexBland      = "simplex.bland_switches"

	// Warm-start counters (basis reuse across branch & bound nodes).
	// A hit is a solve completed from an inherited basis with phase 1
	// skipped; a miss is a solve that was offered a basis but fell back
	// to the two-phase path (a basis that does not install, or a
	// restoration that gives up). A cold solve's slack start is neither.
	// DualPivots counts the dual-simplex pivots spent restoring primal
	// feasibility from either start; they are also included in
	// MetricSimplexPivots so pivot totals reconcile with iterations.
	MetricSimplexWarmHits   = "simplex.warm_hits"
	MetricSimplexWarmMisses = "simplex.warm_misses"
	MetricSimplexDualPivots = "simplex.dual_pivots"

	// Linear-algebra counters. Factorizations counts every sparse-LU
	// build (initial, eta-cap, drift, tiny-pivot recovery, basis
	// install). EtaUpdates counts product-form etas appended between
	// factorizations, and PricedCandidates the columns examined by
	// (partial) pricing.
	// RefactorDriftMax is a high-water gauge of the relative primal
	// residual observed at the periodic drift checks.
	MetricSimplexFactorizations   = "simplex.factorizations"
	MetricSimplexEtaUpdates       = "simplex.eta_updates"
	MetricSimplexPricedCandidates = "simplex.priced_candidates"
	MetricSimplexRefactorDriftMax = "simplex.refactor_drift_max" // gauge (max)

	// Branch & bound counters and gauges.
	MetricMILPSolves       = "milp.solves"
	MetricMILPNodes        = "milp.nodes"
	MetricMILPIncumbents   = "milp.incumbents"
	MetricMILPBoundImprove = "milp.bound_improvements"
	MetricMILPWallMicros   = "milp.wall_us"
	MetricMILPWorkMicros   = "milp.work_us"
	MetricMILPPeakQueue    = "milp.peak_queue_depth" // gauge (max)
	MetricMILPWorkers      = "milp.workers"          // gauge

	// MetricMILPNodesWorkerPrefix + "<id>" counts nodes claimed by one
	// 1-based worker; the per-worker counters sum to MetricMILPNodes.
	MetricMILPNodesWorkerPrefix = "milp.nodes.worker."

	// Root cutting planes (root-sequential; both keys are absent when
	// the root separated nothing). CutsSeparated counts cuts accepted
	// into the pool across all root rounds, CutsActive the cuts still
	// live (not retired by activity aging) in the model handed to the
	// tree search.
	MetricMILPCutsSeparated = "milp.cuts_separated"
	MetricMILPCutsActive    = "milp.cuts_active"

	// Fallback-chain wall-clock, microseconds. The per-stage counters
	// (prefix + stage name) sum to at most the pipeline total.
	MetricPipelineMicros    = "core.pipeline_us"
	MetricStageMicrosPrefix = "core.stage_us."
	MetricStageAttempts     = "core.stage_attempts"

	// Fault-injection firings: the total, and per-class with the prefix.
	MetricFaultFired       = "fault.fired"
	MetricFaultFiredPrefix = "fault.fired."

	// Monte Carlo robustness harness (internal/robust): sample outcomes
	// (solved + excluded = total; degraded is a subset of excluded) and
	// the candidate-plan funnel of the robustness ranking.
	MetricRobustSamples            = "robust.samples"
	MetricRobustSamplesSolved      = "robust.samples_solved"
	MetricRobustSamplesDegraded    = "robust.samples_degraded"
	MetricRobustSamplesExcluded    = "robust.samples_excluded"
	MetricRobustCandidates         = "robust.candidates"
	MetricRobustCandidatesRejected = "robust.candidates_rejected"
	MetricRobustDecisionsFlipped   = "robust.decisions_flipped"

	// Planning daemon (internal/serve): job lifecycle counts (submitted
	// = done + degraded + failed + still in flight; rejected jobs never
	// enter the queue and are counted separately), the solve cache's
	// hit/miss split, warm-seeded re-plans, and the live queue depth.
	MetricServeJobsSubmitted = "serve.jobs_submitted"
	MetricServeJobsDone      = "serve.jobs_done"
	MetricServeJobsDegraded  = "serve.jobs_degraded"
	MetricServeJobsFailed    = "serve.jobs_failed"
	MetricServeJobsRejected  = "serve.jobs_rejected"
	MetricServeCacheHits     = "serve.cache_hits"
	MetricServeCacheMisses   = "serve.cache_misses"
	MetricServeWarmSeeded    = "serve.warm_seeded"
	MetricServeQueueDepth    = "serve.queue_depth" // gauge

	// Histograms.
	MetricHistPivotsPerSolve = "simplex.pivots_per_solve"
	// MetricHistRobustFlips observes, per application group, the number
	// of samples whose optimal plan moved the group off its nominal site.
	MetricHistRobustFlips = "robust.flips_per_group"
)

// Metrics is a registry of named counters, gauges and histograms. All
// methods are safe for concurrent use and safe on a nil *Metrics (every
// operation is then a no-op costing one pointer comparison), so the
// solver layers carry their instrumentation unconditionally.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64   // guarded by mu
	gauges   map[string]float64 // guarded by mu
	hists    map[string]*hist   // guarded by mu
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// SetGauge records the gauge's current value, replacing any prior one.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// MaxGauge records v only if it exceeds the gauge's current value —
// high-water marks like peak queue depth.
func (m *Metrics) MaxGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if cur, ok := m.gauges[name]; !ok || v > cur {
		m.gauges[name] = v
	}
	m.mu.Unlock()
}

// Observe adds one sample to the named histogram. Samples are bucketed
// by power of two; negative and non-finite samples clamp to 0.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &hist{}
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// Counter returns the named counter's current value (0 if absent).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Gauge returns the named gauge's current value and whether it was set.
func (m *Metrics) Gauge(name string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.gauges[name]
	return v, ok
}

// hist is a power-of-two-bucket histogram: bucket i counts samples v
// with bits.Len64(uint64(v)) == i, i.e. v in [2^(i−1), 2^i). Integer
// bucketing keeps Observe free of float comparisons and math calls.
type hist struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [65]int64
}

func (h *hist) observe(v float64) {
	if !(v > 0) || math.IsInf(v, 1) { // NaN, negative and zero clamp to 0
		if math.IsInf(v, 1) {
			v = math.MaxFloat64
		} else {
			v = 0
		}
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	u := uint64(0)
	if v >= 1 {
		if v >= math.MaxUint64 {
			u = math.MaxUint64
		} else {
			u = uint64(v)
		}
	}
	h.buckets[bits.Len64(u)]++
}

// HistBucket is one non-empty histogram bucket: Count samples with
// value ≤ Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistStats is a frozen histogram.
type HistStats struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a frozen, JSON-encodable view of a registry. Map keys
// encode sorted (encoding/json), so equal registries yield equal bytes.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters,omitempty"`
	Gauges     map[string]float64   `json:"gauges,omitempty"`
	Histograms map[string]HistStats `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. A nil registry snapshots to nil, which
// is what keeps Plan.Stats.Metrics (omitempty) out of default plans.
func (m *Metrics) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{}
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for k, v := range m.counters {
			s.Counters[k] = v
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(m.gauges))
		for k, v := range m.gauges {
			s.Gauges[k] = v
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]HistStats, len(m.hists))
		for k, h := range m.hists {
			hs := HistStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			for i, c := range h.buckets {
				if c == 0 {
					continue
				}
				// The overflow bucket's bound stays JSON-encodable
				// (encoding/json rejects +Inf).
				le := math.MaxFloat64
				if i < 64 {
					le = float64(uint64(1)<<uint(i)) - 1
				}
				hs.Buckets = append(hs.Buckets, HistBucket{Le: le, Count: c})
			}
			s.Histograms[k] = hs
		}
	}
	return s
}

// CounterNames returns the snapshot's counter names, sorted — handy for
// tests iterating a stable order.
func (s *Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON, the format the CLIs'
// -metrics flag dumps.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
