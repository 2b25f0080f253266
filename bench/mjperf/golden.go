package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// goldenJSON holds the simulator's virtual response times, in
// nanoseconds, of the sim_sweep queries for the seeds the repository pins:
// seed -> strategy -> time. The simulator is deterministic, so these are
// compared bit for bit; for any other seed the workload still requires
// every execution to repeat what its set-up saw.
//
//go:embed golden/sim_sweep.json
var goldenJSON []byte

func checkGolden(seed int64, items []queryItem) error {
	var golden map[string]map[string]int64
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden/sim_sweep.json: %w", err)
	}
	want, ok := golden[strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	for _, it := range items {
		name := it.q.Strategy.String()
		if int64(it.virtual) != want[name] {
			return fmt.Errorf("%s virtual response time %d ns, golden file has %d ns", name, int64(it.virtual), want[name])
		}
	}
	return nil
}
