package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/model"
)

// optionsFingerprint is the part of the planning configuration that can
// change the answer, flattened to hashable values. Observability hooks
// (trace, metrics, fault injection) are deliberately absent: they never
// alter the plan, so two solves differing only in instrumentation share
// a cache entry.
type optionsFingerprint struct {
	DR               bool             `json:"dr"`
	DedicatedBackups bool             `json:"dedicated"`
	ShadowPrices     bool             `json:"shadow"`
	Omega            float64          `json:"omega"`
	Formulation      core.Formulation `json:"formulation"`
	Aggregate        bool             `json:"aggregate"`
	CandidateK       int              `json:"candidates"`
	GapTol           float64          `json:"gap"`
	MaxNodes         int              `json:"nodes"`
	TimeLimit        time.Duration    `json:"timelimit"`
	Workers          int              `json:"workers"`
	Cuts             bool             `json:"cuts"`
	Kernel           bool             `json:"kernel"`
	MemoryBytes      int64            `json:"membudget"`
}

// cacheKey derives the content-hash key for one (state, options) pair:
// the state's canonical hash (field-order and whitespace independent, see
// model.CanonicalBytes) combined with the option fingerprint, FNV-64a
// over both. Any semantic change to either input moves the key.
func cacheKey(state *model.AsIsState, opts core.Options) (string, error) {
	stateBytes, err := model.CanonicalBytes(state)
	if err != nil {
		return "", err
	}
	fp := optionsFingerprint{
		DR:               opts.DR,
		DedicatedBackups: opts.DedicatedBackups,
		ShadowPrices:     opts.ComputeShadowPrices,
		Omega:            opts.Omega,
		Formulation:      opts.Formulation,
		Aggregate:        opts.Aggregate,
		CandidateK:       opts.CandidateK,
		GapTol:           opts.Solver.GapTol,
		MaxNodes:         opts.Solver.MaxNodes,
		TimeLimit:        opts.Solver.TimeLimit,
		Workers:          opts.Solver.Workers,
		Cuts:             opts.Solver.Cuts.Enable,
		Kernel:           opts.Solver.Kernel.Enable,
		MemoryBytes:      opts.Solver.Budget.MemoryBytes,
	}
	fpBytes, err := json.Marshal(fp)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(stateBytes)
	h.Write([]byte{0}) // domain separator between state and options
	h.Write(fpBytes)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// planCache maps cache keys to finished certified plans. Only clean
// plans — no degradation report at all — are stored: a degraded or even
// merely recovered solve depends on budget timing and retry trajectory,
// so replaying its bytes to a later identical submission would present
// one run's luck as the model's answer.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

type cacheEntry struct {
	plan      *model.Plan
	planBytes []byte // exact bytes WritePlan produced for the solving job
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*cacheEntry)}
}

// get returns the entry for key, or nil.
func (c *planCache) get(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

// put stores a finished plan under key. First writer wins: concurrent
// identical submissions race benignly, and the bytes any later reader
// sees are one specific solve's output.
func (c *planCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; !dup {
		c.entries[key] = e
	}
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
