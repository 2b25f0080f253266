package dist

import (
	"context"
	"fmt"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/operator"
	"multijoin/internal/strategy"
)

// TestNodeStreams declares every node of a run — the coordinator and each
// worker, without a network — for every strategy, both tree shapes and one
// to four workers, and checks the one declaration both sides share: a
// stream of Wiring.Streams whose endpoints sit on different nodes leaves
// its producer's node toward its consumer's and nowhere else, and has an
// ingress queue on its consumer's node and nowhere else; a stream inside
// one node is neither.
func TestNodeStreams(t *testing.T) {
	for _, kind := range strategy.Kinds {
		for _, shape := range []jointree.Shape{jointree.LeftLinear, jointree.WideBushy} {
			tree, err := jointree.BuildShape(shape, 6)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := strategy.Plan(kind, tree, strategy.Config{Procs: 10, Card: 1000})
			if err != nil {
				t.Fatal(err)
			}
			wiring, err := operator.Wire(plan)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("%v/%v/w%d", kind, shape, workers), func(t *testing.T) {
					// sends[id][sid] is the node node id sends stream sid to.
					sends := make(map[int]map[int]int)
					nodes := make(map[int]*node)
					for id := coordNode; id < workers; id++ {
						n, err := newNode(context.Background(), id, workers, plan, 8, 1, func(error) {})
						if err != nil {
							t.Fatal(err)
						}
						nodes[id], sends[id] = n, make(map[int]int)
						for to, sids := range n.egressTo {
							for _, sid := range sids {
								if _, dup := sends[id][sid]; dup {
									t.Errorf("node %d lists stream %d twice", id, sid)
								}
								sends[id][sid] = to
							}
						}
					}
					crossing, queues, egress := 0, 0, 0
					for _, sp := range wiring.Streams() {
						from, to := nodeOf(sp.FromProc(), workers), nodeOf(sp.ToProc(), workers)
						if from != to {
							crossing++
						}
						for id, n := range nodes {
							target, out := sends[id][sp.ID]
							_, in := n.p.in[uint32(sp.ID)]
							if want := from != to && id == from; out != want || out && target != to {
								t.Errorf("stream %d (node %d to %d): node %d sends it: %v (to %d), want %v", sp.ID, from, to, id, out, target, want)
							}
							if want := from != to && id == to; in != want {
								t.Errorf("stream %d (node %d to %d): node %d queues it: %v, want %v", sp.ID, from, to, id, in, want)
							}
						}
					}
					for id, n := range nodes {
						queues += len(n.p.in)
						egress += len(sends[id])
					}
					if queues != crossing || egress != crossing {
						t.Errorf("%d node-crossing streams, %d ingress queues, %d egress streams", crossing, queues, egress)
					}
					if crossing == 0 {
						t.Error("no stream crosses nodes (the collect's always does)")
					}
				})
			}
		}
	}
}
