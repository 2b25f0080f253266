package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// aaRuns is the number of runs in each of the self-check's two sets.
const aaRuns = 5

// runAA is the repeatability self-check: every workload is run aaRuns
// times in each of two interleaved sets (A B A B ...) of the same code,
// each run in its own process, run i of both sets on seed+i. For each
// end-to-end metric it prints the two medians, the gap between them as a
// share of set A's median, and each set's quartile spread (IQR/median, the
// driver's rule); beside them, per set, the median reference-kernel time
// and how many windows the host disturbed. The check fails when a gap
// exceeds half the metric's bound; it returns the process exit code.
func runAA(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mjperf: %v\n", err)
		return 2
	}
	failed := false
	for _, def := range workloads {
		name := def.name
		// sets[s][metric] lists the metric's value in each run of set s.
		sets := [2]map[string][]float64{{}, {}}
		var kernelMS [2][]float64
		var disturbed [2]int
		for i := 0; i < aaRuns; i++ {
			for s := range sets {
				res, rec, err := runChild(self, name, seed+int64(i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mjperf: %s, set %c run %d: %v\n", name, 'A'+s, i, err)
					return 2
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "mjperf: %s, set %c run %d: %d of %d operations failed\n", name, 'A'+s, i, res.Failed, res.Attempted)
					failed = true
				}
				for metric, v := range res.Metrics {
					sets[s][metric] = append(sets[s][metric], v.Value)
				}
				kernelMS[s] = append(kernelMS[s], rec.RefKernelMS)
				if rec.Disturbed {
					disturbed[s]++
				}
			}
		}
		fmt.Printf("%s: %d runs per set, %g s windows, seeds %d..%d\n", name, aaRuns, seconds, seed, seed+aaRuns-1)
		fmt.Printf("  reference kernel, median of the sets' windows: A %.2f ms, B %.2f ms; windows with host.ref_drift_pct > 10: A %d, B %d\n",
			median(kernelMS[0]), median(kernelMS[1]), disturbed[0], disturbed[1])
		fmt.Printf("  %-20s %12s %12s %8s %8s %9s %9s\n", "metric", "median A", "median B", "gap", "allowed", "spread A", "spread B")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // B worse than A, as a share of A
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if math.Abs(worse) > d.Bound/2 {
				verdict = "  FAIL"
				failed = true
			}
			fmt.Printf("  %-20s %12.4f %12.4f %+7.2f%% %7.2f%% %8.2f%% %8.2f%%%s\n",
				d.Name, ma, mb, 100*worse, 100*d.Bound/2, 100*spread(a), 100*spread(b), verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses its record and
// result lines. The child's standard error goes to this process's.
func runChild(self, workload string, seed int64, seconds float64) (result, record, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // waits for the child to exit
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	var rec record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, rec, runErr
		}
		return res, rec, fmt.Errorf("no result line: %w", err)
	}
	for _, l := range lines {
		if js, ok := strings.CutPrefix(l, recordPrefix); ok {
			if err := json.Unmarshal([]byte(js), &rec); err != nil {
				return res, rec, fmt.Errorf("record line: %w", err)
			}
		}
	}
	return res, rec, nil
}
