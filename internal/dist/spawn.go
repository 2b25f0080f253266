package dist

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
)

// Environment contract between a coordinator and the worker processes it
// spawns. envWorkerBin optionally points at a built cmd/mjworker binary;
// without it the coordinator re-executes its own binary, which works for
// any process that called InitWorker first thing in main (or TestMain).
const (
	envWorker    = "MJ_DIST_WORKER"
	envConnect   = "MJ_DIST_CONNECT"
	envNode      = "MJ_DIST_NODE"
	envRun       = "MJ_DIST_RUN"
	envWorkerBin = "MJ_DIST_WORKER_BIN"
	// envBind/envAdvertise set the spawned worker's data-listener bind
	// address and advertised peer address (ResolveAdvertise semantics);
	// unset means the historical loopback defaults. They pass through
	// os.Environ, so exporting them on the coordinator host configures
	// every locally spawned worker.
	envBind      = "MJ_DIST_BIND"
	envAdvertise = "MJ_DIST_ADVERTISE"
)

// selfExec records that this process passed through InitWorker, so
// re-executing os.Executable() with the worker environment yields a
// functioning worker.
var selfExec atomic.Bool

// workerSpawnHook, when non-nil, observes every spawned worker process —
// test instrumentation for the crash-recovery audits (set via
// export_test.go, never in production paths).
var workerSpawnHook func(node, pid int)

// InitWorker is the dist worker entry hook. Call it first thing in main
// (or TestMain): in an ordinary process it only marks the binary as
// re-executable and returns; in a process spawned by a coordinator (worker
// environment set) it runs the worker protocol to completion and exits,
// never returning. Without this hook (or MJ_DIST_WORKER_BIN pointing at a
// built cmd/mjworker), the "dist" runtime cannot spawn workers and fails
// with a diagnostic.
func InitWorker() {
	if os.Getenv(envWorker) == "" {
		selfExec.Store(true)
		return
	}
	node, err := strconv.Atoi(os.Getenv(envNode))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mjworker: bad %s: %v\n", envNode, err)
		os.Exit(1)
	}
	if err := ServeWorkerOn(os.Getenv(envConnect), node, os.Getenv(envRun),
		os.Getenv(envBind), os.Getenv(envAdvertise)); err != nil {
		fmt.Fprintf(os.Stderr, "mjworker %d: %v\n", node, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerBinary resolves the executable to spawn workers from:
// $MJ_DIST_WORKER_BIN, then the current binary if it passed through
// InitWorker.
func workerBinary() (string, error) {
	if p := os.Getenv(envWorkerBin); p != "" {
		return p, nil
	}
	if selfExec.Load() {
		exe, err := os.Executable()
		if err != nil {
			return "", fmt.Errorf("dist: resolve own executable: %w", err)
		}
		return exe, nil
	}
	return "", fmt.Errorf("dist: no worker binary: call dist.InitWorker from main/TestMain, or set %s to a built cmd/mjworker", envWorkerBin)
}

// spawnWorker starts worker node as a child process connecting back to
// addr. Stderr passes through (a worker only writes on failure); stdout is
// discarded — no pipes, so the coordinator holds no extra descriptors per
// child.
func spawnWorker(bin, addr, runID string, node int) (*exec.Cmd, error) {
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(),
		envWorker+"=1",
		envConnect+"="+addr,
		envNode+"="+strconv.Itoa(node),
		envRun+"="+runID,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: spawn worker %d (%s): %w", node, bin, err)
	}
	if workerSpawnHook != nil {
		workerSpawnHook(node, cmd.Process.Pid)
	}
	return cmd, nil
}
