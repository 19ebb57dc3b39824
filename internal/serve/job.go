package serve

import (
	"bytes"
	"context"
	"sync"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/lp"
	"github.com/etransform/etransform/internal/model"
	"github.com/etransform/etransform/internal/obs"
)

// Job lifecycle states, in order. A job is terminal in StateDone,
// StateDegraded or StateFailed; its event stream closes at the same
// moment, so a tailer that reads done=true has the whole trace.
const (
	StateQueued   = "queued"
	StateSolving  = "solving"
	StateDone     = "done"
	StateDegraded = "degraded"
	StateFailed   = "failed"
)

// job is one submitted planning request. It outlives its solve (status,
// plan and ?prev= lookups read it), so it does not hold the decoded
// state: that rides the queue in a pending and is dropped when the
// solve ends.
type job struct {
	id       string
	cacheKey string
	seed     *model.Plan // previous plan for warm re-planning, nil for cold
	tail     *obs.TailSink

	mu        sync.Mutex
	status    string
	plan      *model.Plan
	planBytes []byte
	report    *lp.DegradationReport // verbatim from Plan.Stats.Degradation
	errMsg    string
	cached    bool // answered from the solve cache, no solve ran
}

// snapshot returns the job's externally visible status under its lock.
func (j *job) snapshot() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:          j.id,
		State:       j.status,
		CacheKey:    j.cacheKey,
		Cached:      j.cached,
		Seeded:      j.seed != nil,
		Events:      j.tail.Len(),
		Error:       j.errMsg,
		Degradation: j.report,
	}
}

// pending is a queued solve: the job and the state it plans.
type pending struct {
	j     *job
	state *model.AsIsState
}

// jobStatus is the JSON shape of GET /v1/plans/{id}.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheKey string `json:"cache_key"`
	// Cached marks a job answered from the solve cache without solving.
	Cached bool `json:"cached,omitempty"`
	// Seeded marks a warm re-plan (?prev=) whose solve started from the
	// previous plan's assignment.
	Seeded bool `json:"seeded,omitempty"`
	// Events is the number of trace events emitted so far (the /events
	// stream's current length).
	Events int    `json:"events"`
	Error  string `json:"error,omitempty"`
	// Degradation is the resilient pipeline's report, passed through
	// verbatim when the solve did not come from a clean first-attempt
	// exact run.
	Degradation *lp.DegradationReport `json:"degradation,omitempty"`
}

// solve runs one job to its terminal state. It is called on a solver
// goroutine; ctx is the server's lifetime.
func (s *Server) solve(ctx context.Context, j *job, state *model.AsIsState) {
	j.mu.Lock()
	j.status = StateSolving
	j.mu.Unlock()

	plan, err := s.solvePlan(ctx, j, state)
	j.mu.Lock()
	defer func() {
		j.mu.Unlock()
		j.tail.Close()
	}()
	if err != nil {
		j.status = StateFailed
		j.errMsg = err.Error()
		s.met.Add(obs.MetricServeJobsFailed, 1)
		return
	}
	var buf bytes.Buffer
	if err := model.WritePlan(&buf, plan); err != nil {
		j.status = StateFailed
		j.errMsg = err.Error()
		s.met.Add(obs.MetricServeJobsFailed, 1)
		return
	}
	j.plan = plan
	j.planBytes = buf.Bytes()
	j.report = plan.Stats.Degradation
	if j.report != nil && j.report.Degraded {
		j.status = StateDegraded
		s.met.Add(obs.MetricServeJobsDegraded, 1)
	} else {
		j.status = StateDone
		s.met.Add(obs.MetricServeJobsDone, 1)
	}
	// Only clean cold solves populate the cache (see planCache); warm
	// re-plans skip it so a seeded trajectory's tie-breaks never stand
	// in for the cold answer.
	if j.report == nil && j.seed == nil {
		s.cache.put(j.cacheKey, &cacheEntry{plan: plan, planBytes: j.planBytes})
	}
}

// solvePlan builds the per-job planner and runs the pipeline. The job's
// trace streams into its TailSink; the solver's metrics registry stays
// nil so the plan's stats — and therefore its bytes — match what the
// plain CLI produces for the same state and options.
func (s *Server) solvePlan(ctx context.Context, j *job, state *model.AsIsState) (*model.Plan, error) {
	opts := s.cfg.Core
	opts.Solver.Metrics = nil
	if opts.Solver.Workers == 1 {
		opts.Solver.Trace = obs.NewDeterministic(j.tail)
	} else {
		opts.Solver.Trace = obs.New(j.tail)
	}
	planner, err := core.New(state, opts)
	if err != nil {
		return nil, err
	}
	if j.seed != nil {
		if err := planner.SeedPlan(j.seed); err != nil {
			return nil, err
		}
		s.met.Add(obs.MetricServeWarmSeeded, 1)
	}
	return planner.SolveContext(ctx)
}
