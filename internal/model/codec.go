package model

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReadState reads r to its end, decodes the one JSON object it holds as
// an AsIsState and validates it. Keys that name no field are an error at
// every level, and so is anything but whitespace after the object; see
// decode.go for how the decoder matches encoding/json.
func ReadState(r io.Reader) (*AsIsState, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: reading as-is state: %w", err)
	}
	s, err := decodeState(data)
	if err != nil {
		return nil, fmt.Errorf("model: decoding as-is state: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadState reads an AsIsState from a JSON file.
func LoadState(path string) (*AsIsState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	s, err := ReadState(f)
	if err != nil {
		return nil, fmt.Errorf("model: %s: %w", path, err)
	}
	return s, nil
}

// WriteState encodes the state as indented JSON.
func WriteState(w io.Writer, s *AsIsState) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("model: encoding as-is state: %w", err)
	}
	return nil
}

// SaveState writes the state to a JSON file.
func SaveState(path string, s *AsIsState) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	if err := WriteState(f, s); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("model: closing %s: %w", path, err)
	}
	return nil
}

// WritePlan encodes a plan as indented JSON.
func WritePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("model: encoding plan: %w", err)
	}
	return nil
}

// ReadPlan decodes a plan from JSON.
func ReadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("model: decoding plan: %w", err)
	}
	return &p, nil
}
