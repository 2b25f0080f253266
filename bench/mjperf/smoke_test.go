package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// checkAgainst holds an emitted result line against the metric list
// BENCHMARK.json declares for that mode: every declared metric present
// with its unit, nothing undeclared, every value a finite number.
func checkAgainst(t *testing.T, line string, declared []metricDef, neverZero bool) {
	t.Helper()
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("metric %s emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.Name, v.Value)
		case neverZero && v.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload end to end, untraced and traced, with the
// warm-up cut to one operation and a window of 0.3 s, on the second pinned
// seed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	const window = 300 * time.Millisecond
	for _, def := range workloads {
		def.warmup = 1
		t.Run(def.name, func(t *testing.T) {
			res, err := runPlain(def, 2024, window, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, res.line(), bf.EndToEnd, true)
		})
		t.Run(def.name+"/traced", func(t *testing.T) {
			res, err := runTraced(def, 2024, window, "")
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, res.line(), bf.PerLayer, false)
		})
	}
}
