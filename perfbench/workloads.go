package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"github.com/etransform/etransform/internal/baseline"
	"github.com/etransform/etransform/internal/core"
	"github.com/etransform/etransform/internal/datagen"
	"github.com/etransform/etransform/internal/milp"
	"github.com/etransform/etransform/internal/model"
)

// DefaultSeed is the workload seed used while developing a change;
// HeldOutSeed is kept back for checking a claim on inputs the change
// was not tuned on.
const (
	DefaultSeed int64 = 1
	HeldOutSeed int64 = 7
)

// workload is one set of inputs the benchmark runs. README.md records
// why each exists and which layers it stresses.
type workload struct {
	name string
	// scale shrinks the enterprise1 case study (datagen Scaled).
	scale float64
	dr    bool
	// maxNodes is the only solve budget. Every solve runs at Workers=1,
	// whose search is bit-for-bit deterministic, so a node cap makes a
	// run do the same work on any host; the TimeLimit in coreOptions
	// never binds. The caps are low so that a run covers hundreds of
	// estates and its figures depend little on which estates a seed
	// drew, and set so that the median op does not sit on the boundary
	// between estates that close and estates that stop at the cap.
	maxNodes int
	// opsPerSecond sizes a run: ops = ceil(seconds × opsPerSecond), a
	// fixed sequence rather than a time window so exact counts and peak
	// RSS compare across runs. It is the rate measured on the 2-CPU
	// reference host, so a run lasts about --seconds there. A serve-mix
	// op is a round of four requests.
	opsPerSecond float64
	// clients is the number of closed-loop clients (serve-mix only).
	clients int
}

var workloads = []workload{
	{name: "plan-dr", scale: 0.1, dr: true, maxNodes: 10, opsPerSecond: 13},
	{name: "serve-mix", scale: 0.1, maxNodes: 20, opsPerSecond: 80, clients: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ops returns the number of ops a run of the given length performs.
func (w workload) ops(seconds int) int {
	return int(math.Ceil(float64(seconds) * w.opsPerSecond))
}

// coreOptions is the planning configuration every solve of the workload
// uses, in process and behind serve alike.
func (w workload) coreOptions() core.Options {
	return core.Options{
		DR:        w.dr,
		Aggregate: true,
		Solver: milp.Options{
			GapTol:    5e-3,
			MaxNodes:  w.maxNodes,
			TimeLimit: time.Hour,
			Workers:   1,
		},
	}
}

// estateSeed derives the datagen seed of estate k in stream s (the
// client index under serve-mix) from the workload seed.
func estateSeed(name string, seed int64, stream, k int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", name, seed, stream, k)
	return int64(h.Sum64() >> 1)
}

// generateEstate builds estate k of stream s: an enterprise1-shaped
// as-is state at the workload's scale.
func (w workload) generateEstate(seed int64, stream, k int) (*model.AsIsState, error) {
	c := datagen.Enterprise1().Scaled(w.scale)
	c.Seed = estateSeed(w.name, seed, stream, k)
	c.Name = fmt.Sprintf("%s-s%d-c%d-e%d", w.name, seed, stream, k)
	return c.Generate()
}

// asIsCost is the reference the plan's cost is compared with: the
// as-is estate, plus the mirrored backup site under DR (Figs. 4 and 6).
func (w workload) asIsCost(s *model.AsIsState) (float64, error) {
	var bd model.CostBreakdown
	var err error
	if w.dr {
		bd, err = baseline.AsIsPlusDR(s)
	} else {
		bd, err = model.EvaluateAsIs(s)
	}
	if err != nil {
		return 0, err
	}
	return bd.Total(), nil
}

// planState returns estate k of a plan-dr run, generated again from the
// seed, and its state bytes. Ops call it just before they run, so the
// process holds no pool of inputs.
func (w workload) planState(seed int64, k int) (*model.AsIsState, []byte, error) {
	s, err := w.generateEstate(seed, 0, k)
	if err != nil {
		return nil, nil, err
	}
	b, err := encodeState(s)
	return s, b, err
}

// encodeState is the request body a client sends: the CLI's indented
// state JSON.
func encodeState(s *model.AsIsState) ([]byte, error) {
	var buf bytes.Buffer
	if err := model.WriteState(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reencodeState encodes the same state compactly, so the bytes differ
// from encodeState's while the canonical bytes are equal.
func reencodeState(s *model.AsIsState) ([]byte, error) {
	return json.Marshal(s)
}

// edit is one re-planning change: target DC dc's power price raised 5%.
type edit struct{ dc int }

func applyEdits(s *model.AsIsState, edits []edit) {
	for _, e := range edits {
		s.Target.DCs[e.dc].PowerCostPerKWh *= 1.05
	}
}
