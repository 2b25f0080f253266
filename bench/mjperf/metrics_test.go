package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// Limits of the benchmark contract.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks one metric list against the contract: names and
// units well-formed, names unique across both lists (seen carries them
// over), the count within max.
func validateDefs(defs []metricDef, max int, seen map[string]bool) error {
	if len(defs) < 1 || len(defs) > max {
		return fmt.Errorf("%d metrics, want 1..%d", len(defs), max)
	}
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.Name):
			return fmt.Errorf("metric name %q is malformed", d.Name)
		case !unitRE.MatchString(d.Unit):
			return fmt.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %s: better=%q", d.Name, d.Better)
		case d.Bound < 0 || d.Bound > 0.25:
			return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		case seen[d.Name]:
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestDeclaredMetricsAreValid(t *testing.T) {
	seen := make(map[string]bool)
	if err := validateDefs(endToEnd, maxEndToEnd, seen); err != nil {
		t.Errorf("end-to-end metrics: %v", err)
	}
	if err := validateDefs(perLayer, maxPerLayer, seen); err != nil {
		t.Errorf("per-layer metrics: %v", err)
	}
}

func TestValidateDefsRejects(t *testing.T) {
	ok := metricDef{Name: "a.b-c_1", Unit: "ops/s", Better: "higher", Bound: 0.1}
	for name, defs := range map[string][]metricDef{
		"empty list":     {},
		"space in name":  {{Name: "a b", Unit: "ms", Better: "lower"}},
		"empty name":     {{Name: "", Unit: "ms", Better: "lower"}},
		"long name":      {{Name: strings.Repeat("x", 65), Unit: "ms", Better: "lower"}},
		"bad unit":       {{Name: "a", Unit: "m s", Better: "lower"}},
		"long unit":      {{Name: "a", Unit: strings.Repeat("u", 17), Better: "lower"}},
		"bad direction":  {{Name: "a", Unit: "ms", Better: "faster"}},
		"bound too wide": {{Name: "a", Unit: "ms", Better: "lower", Bound: 0.3}},
		"duplicate":      {ok, ok},
		"too many":       {ok, {Name: "b", Unit: "ms", Better: "lower"}, {Name: "c", Unit: "ms", Better: "lower"}},
	} {
		if err := validateDefs(defs, 2, make(map[string]bool)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateDefs([]metricDef{ok}, 2, make(map[string]bool)); err != nil {
		t.Errorf("valid metric rejected: %v", err)
	}
}

func TestNewResultChecksTheMetricSet(t *testing.T) {
	defs := []metricDef{{Name: "a", Unit: "ms", Better: "lower"}, {Name: "b", Unit: "s", Better: "lower"}}
	if _, err := newResult(defs, map[string]float64{"a": 1}, 1, 0, true); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := newResult(defs, map[string]float64{"a": 1, "b": 2, "c": 3}, 1, 0, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	res, err := newResult(defs, map[string]float64{"a": 1, "b": 2}, 5, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.line()), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", back)
	}
}

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := bf.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], prog[i])
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	hasSetup := false
	for _, d := range bf.EndToEnd {
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
		if d.Bound <= 0 {
			t.Errorf("end-to-end metric %s has no bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
