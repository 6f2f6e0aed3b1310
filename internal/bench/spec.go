package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one named metric of BENCHMARK.json: its unit, which direction
// is better and, for end-to-end metrics, the share of the parent's median
// by which it may worsen before a change counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names a workload and records why it was chosen.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec mirrors BENCHMARK.json, the one place metric names, units,
// directions and bounds are fixed. The harness emits values; -compare and
// the package tests read the spec to judge them.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []Metric       `json:"end_to_end"`
	PerLayer   []Metric       `json:"per_layer"`
}

// LoadSpec reads a BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	var s Spec
	buf, err := os.ReadFile(path) //nolint:ioboundary // harness reads its own spec file, not index data
	if err != nil {
		return s, fmt.Errorf("bench: reading spec: %w", err)
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return s, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.Workloads) == 0 {
		return s, fmt.Errorf("bench: %s names no workloads or end-to-end metrics", path)
	}
	return s, nil
}

// Value is one measured metric as printed: the number with all its digits
// and the unit BENCHMARK.json fixes for it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric name to measured value.
type Metrics map[string]Value

func (m Metrics) set(name, unit string, v float64) { m[name] = Value{Value: v, Unit: unit} }
