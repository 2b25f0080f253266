package parallel

import (
	"multijoin/internal/operator"
	"multijoin/internal/relation"
)

// Partial configures a partial execution of a plan: only the operation
// processes whose plan processor id is Local execute on this node; streams
// that cross the node boundary are handed to a transport through the
// Ingress/Egress hooks instead of being wired process-to-process. This is
// the reuse seam of the distributed runtime (internal/dist): every node of
// a distributed run executes the ordinary worker loop of this package over
// its own process subset — one process per worker, so stream ids, credit
// windows and end-of-stream marks stay per logical stream — node-crossing
// streams carry the same operator.Msg as local ones, and only the transport
// differs.
type Partial struct {
	// Local reports whether the processes bound to plan processor id proc
	// execute on this node. It must be a pure function of proc, and the
	// union of all nodes' Local sets must cover the plan exactly once.
	Local func(proc int) bool

	// Ingress is called during setup for every stream whose producer is
	// remote and whose consumer is local, identified by its canonical
	// stream id (operator.Edge.Stream). The transport must deliver every
	// decoded batch into inbox — the consuming process's own — as hdr (which
	// names that process) with Batch set (operator.Send), and hdr itself,
	// the stream's end-of-stream mark, once the stream has ended; batches
	// must come from BatchPool so the consuming process can return them
	// after use.
	Ingress func(id int, hdr operator.Msg, inbox chan<- operator.Msg)

	// Egress is called during setup for every stream whose producer is
	// local and whose consumer is remote. out stands in for the remote
	// process's inbox, for this stream alone: the transport must drain it,
	// forwarding each batch and returning it to BatchPool, until the
	// producer's end-of-stream mark (a message without a batch); it must
	// also stop draining when the run context is cancelled.
	Egress func(id int, out <-chan operator.Msg)

	// ScanFragment returns the pre-placed base relation fragment of local
	// scan instance idx of operator opID — the distributed substitute for
	// in-process fragmentation (the coordinator fragments once and ships
	// each worker its fragments). It is only called for local scan
	// instances and may be nil on nodes that host none.
	ScanFragment func(opID string, idx int) relation.Batch

	// LeafCard returns the total cardinality of base relation leaf, used
	// for downstream size estimates exactly like rel.Card() in-process.
	LeafCard func(leaf int) int

	// BatchPool, when set, replaces the run's private pool so the transport
	// and the run recycle the same batches. Its batch capacity must equal
	// the resolved Config.BatchTuples.
	BatchPool *relation.BatchPool
}
