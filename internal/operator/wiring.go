package operator

import (
	"fmt"

	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// Edge describes where an operator's output goes.
type Edge struct {
	To    *Node
	Port  Port
	Route relation.Attr // attribute hash-routed over To's processes
	// Local marks a scan-aligned edge (xra.LocalEdge): process i feeds
	// process i over one stream instead of redistributing.
	Local bool
	// FirstStream is the canonical id of the edge's first stream; see
	// Stream.
	FirstStream int
}

// Dests returns how many destinations each producer process of the edge
// has: one on a local edge, every consumer process on a redistribution.
func (e *Edge) Dests() int {
	if e.Local {
		return 1
	}
	return len(e.To.Op.Procs)
}

// Target returns the consumer process that destination d of producer
// process from addresses.
func (e *Edge) Target(from, d int) int {
	if e.Local {
		return from
	}
	return d
}

// Stream returns the canonical id of the stream from producer process from
// to its destination d: streams are numbered producer operator by producer
// operator in plan order, producer-major within an edge. The id is a pure
// function of the plan, so the nodes of a distributed run agree on it
// without exchanging wiring metadata.
func (e *Edge) Stream(from, d int) int { return e.FirstStream + from*e.Dests() + d }

// Node is one plan operator with its place in the dataflow.
type Node struct {
	Op    *xra.Op
	Index int             // position in plan order (Wiring.Nodes)
	In    [numPorts]*Node // the producer feeding each port, nil where there is none
	Out   *Edge           // nil only for collect
	// After lists the operators that must complete before this one's
	// processes start; Dependents is the inverse relation.
	After, Dependents []*Node
	// EstCard is the estimated output cardinality — exact for scans, the
	// larger operand for the chain query's 1:1 joins — used to size hash
	// tables, result buffers and stream buffers (BufferSize) up front (set
	// by Estimate or PlaceWith).
	EstCard int
	// Frags holds a scan's pre-placed base-relation fragments, one per
	// process (set by PlaceWith).
	Frags []relation.Batch

	// eosWant is how many punctuation marks each process of the operator
	// receives on a port per unit of work: one per producer process on a
	// redistribution edge, one on a local edge.
	eosWant [numPorts]int
}

// InStreams returns the number of streams ending at each process.
func (n *Node) InStreams() int {
	return n.eosWant[Build] + n.eosWant[Probe] + n.eosWant[In]
}

// TableHint is the per-process operand cardinality to size hash tables for.
func (n *Node) TableHint() int { return relation.PerFragmentCap(n.EstCard, len(n.Op.Procs)) }

// Wiring is a validated plan resolved into nodes and edges.
type Wiring struct {
	Plan  *xra.Plan
	Nodes []*Node // plan order: producers before consumers
	// Collect is the plan's single collect node.
	Collect *Node
	// TupleBytes is the declared tuple width of the base relations (set by
	// PlaceWith).
	TupleBytes int
}

// Wire validates the plan and resolves its operators into nodes: consumer
// edges with their port, routing attribute and locality, After
// dependencies, per-port punctuation counts and canonical stream ids.
func Wire(plan *xra.Plan) (*Wiring, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	w := &Wiring{Plan: plan, Nodes: make([]*Node, len(plan.Ops))}
	byID := make(map[string]*Node, len(plan.Ops))
	for i, op := range plan.Ops {
		w.Nodes[i] = &Node{Op: op, Index: i}
		byID[op.ID] = w.Nodes[i]
		if op.Kind == xra.OpCollect {
			w.Collect = w.Nodes[i]
		}
	}
	for _, n := range w.Nodes {
		for _, in := range n.Op.Inputs() {
			p := In
			switch in {
			case n.Op.Build:
				p = Build
			case n.Op.Probe:
				p = Probe
			}
			from := byID[in.From]
			n.In[p] = from
			from.Out = &Edge{To: n, Port: p, Route: in.Route, Local: xra.LocalEdge(from.Op, n.Op, in)}
			n.eosWant[p] = len(from.Op.Procs)
			if from.Out.Local {
				n.eosWant[p] = 1
			}
		}
		for _, a := range n.Op.After {
			dep := byID[a]
			n.After = append(n.After, dep)
			dep.Dependents = append(dep.Dependents, n)
		}
	}
	streams := 0
	for _, n := range w.Nodes {
		if n.Out != nil {
			n.Out.FirstStream = streams
			streams += len(n.Op.Procs) * n.Out.Dests()
		}
	}
	return w, nil
}

// Stream is one tuple stream of the plan in the canonical enumeration.
type Stream struct {
	ID             int
	From, To       *Node
	FromIdx, ToIdx int // producer and consumer process (positions in Op.Procs)
}

// FromProc and ToProc are the processors the endpoint processes are bound to.
func (s Stream) FromProc() int { return s.From.Op.Procs[s.FromIdx] }
func (s Stream) ToProc() int   { return s.To.Op.Procs[s.ToIdx] }

// Streams enumerates every tuple stream in canonical order (Edge.Stream);
// len(Streams()) == Plan.NumStreams().
func (w *Wiring) Streams() []Stream {
	var out []Stream
	for _, n := range w.Nodes {
		if n.Out == nil {
			continue
		}
		for i := range n.Op.Procs {
			for d := 0; d < n.Out.Dests(); d++ {
				out = append(out, Stream{ID: n.Out.Stream(i, d), From: n, To: n.Out.To, FromIdx: i, ToIdx: n.Out.Target(i, d)})
			}
		}
	}
	return out
}

// Estimate sets the scans' cardinalities from card and propagates estimates
// downstream: the chain query's joins are 1:1, so the larger operand bounds
// a join's output.
func (w *Wiring) Estimate(card func(leaf int) int) {
	for _, n := range w.Nodes {
		if n.Op.Kind == xra.OpScan {
			n.EstCard = card(n.Op.Leaf)
		}
		if n.Out != nil && n.EstCard > n.Out.To.EstCard {
			n.Out.To.EstCard = n.EstCard
		}
	}
}

// PlaceWith pre-places every base relation — ideal initial fragmentation
// (Section 4.1): declustered on the join attribute of its first join over
// the processors used for that join, fragment i at scan process i — and
// estimates cardinalities from the relations' sizes. frag must return what
// relation.FragmentBatches would, and may return the same read-only
// fragments to every run that asks (the database's relation.Placement).
func (w *Wiring) PlaceWith(base func(leaf int) *relation.Relation, frag func(r *relation.Relation, a relation.Attr, n int) []relation.Batch) error {
	for _, n := range w.Nodes {
		if n.Op.Kind != xra.OpScan {
			continue
		}
		rel := base(n.Op.Leaf)
		if rel == nil {
			return fmt.Errorf("no base relation for leaf %d", n.Op.Leaf)
		}
		if w.TupleBytes == 0 {
			w.TupleBytes = rel.TupleBytes
		}
		n.Frags = frag(rel, n.Op.FragAttr, len(n.Op.Procs))
	}
	w.Estimate(func(leaf int) int { return base(leaf).Card() })
	return nil
}
