package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/etransform/etransform/internal/model"
)

// checkPlan is the correctness gate every plan passes. It decodes the
// plan bytes the program produced, requires a certificate, and prices
// the plan's assignment again with model.EvaluatePlan, which must
// reproduce the plan's total cost and its servers and backup servers
// in every data center.
func checkPlan(s *model.AsIsState, planBytes []byte) (*model.Plan, error) {
	p, err := model.ReadPlan(bytes.NewReader(planBytes))
	if err != nil {
		return nil, err
	}
	if p.Stats.Certificate == "" {
		return nil, errors.New("gate: plan carries no certificate")
	}
	bd, err := model.EvaluatePlan(s, p)
	if err != nil {
		return nil, fmt.Errorf("gate: %w", err)
	}
	if got, want := bd.Total(), p.Cost.Total(); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return nil, fmt.Errorf("gate: plan reports cost %.6f, its assignment costs %.6f", want, got)
	}
	if len(bd.PerDC) != len(p.Cost.PerDC) {
		return nil, fmt.Errorf("gate: plan uses %d data centers, its assignment %d", len(p.Cost.PerDC), len(bd.PerDC))
	}
	for id, want := range bd.PerDC {
		got, ok := p.Cost.PerDC[id]
		if !ok || got.Servers != want.Servers || got.BackupServers != want.BackupServers {
			return nil, fmt.Errorf("gate: data center %s: plan reports %d+%d servers, its assignment %d+%d",
				id, got.Servers, got.BackupServers, want.Servers, want.BackupServers)
		}
	}
	return p, nil
}

// normalizePlan removes the two wall-clock stats, the only bytes of a
// plan that depend on the machine, and re-encodes the rest with sorted
// keys, so plans from two solves of the same state can be compared.
func normalizePlan(planBytes []byte) ([]byte, error) {
	var v map[string]any
	if err := json.Unmarshal(planBytes, &v); err != nil {
		return nil, fmt.Errorf("gate: decoding plan: %w", err)
	}
	if stats, ok := v["stats"].(map[string]any); ok {
		delete(stats, "wall_millis")
		delete(stats, "work_millis")
	}
	return json.Marshal(v)
}
