package parallel

import (
	"multijoin/internal/relation"
	"multijoin/internal/xra"
)

// EdgeMarks is what the shell of a run puts on one redistribution edge: the
// punctuation marks its producer hosts send (one per destination, Punctuate)
// and the bound, producer hosts × consumer hosts; Awaited reports that every
// consumer host waits for exactly one mark per producer host on the edge's
// port, and one on each local port.
type EdgeMarks struct {
	From, To     string
	Sent, Bound  int
	Awaited      bool
	Hosts, Procs [2]int // producer and consumer hosts and processes
}

// ShellMarks builds the shell of plan under cfg, as a run does before it is
// armed, and reports every redistribution edge's marks.
func ShellMarks(plan *xra.Plan, base func(leaf int) *relation.Relation, cfg Config) ([]EdgeMarks, error) {
	r, err := newRuntime(plan, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.build(base); err != nil {
		return nil, err
	}
	var out []EdgeMarks
	for _, os := range r.ops {
		if os.Out == nil || os.Out.Local {
			continue
		}
		to := r.ops[os.Out.To.Index]
		e := EdgeMarks{From: os.Op.ID, To: to.Op.ID, Bound: len(os.hosts) * len(to.hosts), Awaited: true,
			Hosts: [2]int{len(os.hosts), len(to.hosts)}, Procs: [2]int{len(os.Op.Procs), len(to.Op.Procs)}}
		for _, h := range os.hosts {
			e.Sent += len(h.chans.Dst)
		}
		for _, c := range to.hosts {
			want := 0
			for _, in := range to.In {
				switch {
				case in == nil:
				case in.Out.Local:
					want++
				default:
					want += len(r.ops[in.Index].hosts)
				}
			}
			e.Awaited = e.Awaited && c.join.Marks() == want
		}
		out = append(out, e)
	}
	return out, nil
}
