package stepwise

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// InfiniteWidth is the JSON spelling of an unbounded segment's width,
// since JSON has no literal for infinity.
const InfiniteWidth = "inf"

// jsonSegment mirrors Segment but encodes an infinite width as
// InfiniteWidth.
type jsonSegment struct {
	Width    any     `json:"width"`
	UnitCost float64 `json:"unit_cost"`
}

// unmarshalStrict decodes data into v as json.Unmarshal does, except that
// a key naming no field is an error. encoding/json hands an Unmarshaler
// the raw bytes of its value, so a caller's DisallowUnknownFields does not
// reach this nested decode: without it a misspelled "unit_cots" would
// silently price its tier at 0.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// MarshalJSON implements json.Marshaler.
func (c Curve) MarshalJSON() ([]byte, error) {
	segs := make([]jsonSegment, len(c.segments))
	for i, s := range c.segments {
		js := jsonSegment{UnitCost: s.UnitCost}
		if math.IsInf(s.Width, 1) {
			js.Width = InfiniteWidth
		} else {
			js.Width = s.Width
		}
		segs[i] = js
	}
	return json.Marshal(struct {
		Segments []jsonSegment `json:"segments"`
	}{segs})
}

// UnmarshalJSON implements json.Unmarshaler. Unknown keys, in the curve
// or in a segment, are an error.
func (c *Curve) UnmarshalJSON(data []byte) error {
	var raw struct {
		Segments []jsonSegment `json:"segments"`
	}
	if err := unmarshalStrict(data, &raw); err != nil {
		return err
	}
	segs := make([]Segment, len(raw.Segments))
	for i, js := range raw.Segments {
		switch w := js.Width.(type) {
		case float64:
			segs[i].Width = w
		case string:
			if w != InfiniteWidth {
				return fmt.Errorf("stepwise: segment %d: unknown width %q", i, w)
			}
			segs[i].Width = math.Inf(1)
		default:
			return fmt.Errorf("stepwise: segment %d: width must be a number or %q", i, InfiniteWidth)
		}
		segs[i].UnitCost = js.UnitCost
	}
	parsed, err := NewCurve(segs)
	if err != nil {
		return err
	}
	*c = parsed
	return nil
}

// MarshalJSON implements json.Marshaler. A zero-value function encodes
// as "steps": [] — not null — so that encode∘decode is idempotent
// (UnmarshalJSON always rebuilds a non-nil slice) and content hashes of
// a state don't depend on whether it passed through JSON before.
func (p LatencyPenalty) MarshalJSON() ([]byte, error) {
	steps := p.steps
	if steps == nil {
		steps = []PenaltyStep{}
	}
	return json.Marshal(struct {
		Steps []PenaltyStep `json:"steps"`
	}{steps})
}

// UnmarshalJSON implements json.Unmarshaler. Unknown keys, in the
// function or in a step, are an error.
func (p *LatencyPenalty) UnmarshalJSON(data []byte) error {
	var raw struct {
		Steps []PenaltyStep `json:"steps"`
	}
	if err := unmarshalStrict(data, &raw); err != nil {
		return err
	}
	parsed, err := NewLatencyPenalty(raw.Steps)
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
