package dist

// SetWorkerSpawnHook installs (or, with nil, removes) a test observer that
// sees every spawned worker's node id and OS pid — the seam the
// crash-recovery audits use to kill a live worker mid-run.
func SetWorkerSpawnHook(h func(node, pid int)) { workerSpawnHook = h }

// HelloTimeout is how long an accepted connection may take to say HELLO.
const HelloTimeout = helloTimeout
