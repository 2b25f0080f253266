package operator

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"multijoin/internal/jointree"
	"multijoin/internal/relation"
	"multijoin/internal/spill"
	"multijoin/internal/strategy"
	"multijoin/internal/xra"
)

// taggedRow is one result row as the transport counters see it: the tuple,
// its sign and the processor of the process that produced it.
type taggedRow struct {
	t    relation.Tuple
	sign int8
	proc int32
}

// TestFoldedJoinTags: a Join folded over all processes of a join operator
// (Fold) computes what the operator's processes compute one by one, and
// tags every result row with the processor of the process that produced it
// there (Tags, and Drain's tags out of core) if the operator shares a
// processor with its consumer, and tags nothing otherwise — for a simple
// join that does and a pipelining join that does not, in memory, out of core
// and resident, where a round of deletions follows the inserts. The folded join takes every process's input in one interleaved
// stream with one mark per port, as a host whose producers are one host
// each delivers it.
func TestFoldedJoinTags(t *testing.T) {
	db := chainDB(t, 3, 600)
	for _, kind := range []strategy.Kind{strategy.RD, strategy.FP} {
		w, _ := wire(t, kind, jointree.LeftLinear, 3, 6)
		var jn *Node
		for _, n := range w.Nodes {
			if n.Out != nil && n.Out.To.Op.Kind != xra.OpCollect && n.Op.Kind != xra.OpScan && n.In[Build].Op.Kind == xra.OpScan && n.In[Probe].Op.Kind == xra.OpScan {
				jn = n
			}
		}
		if jn == nil || len(jn.Op.Procs) < 2 {
			t.Fatalf("%v: plan has no join of two scans with several processes feeding a join", kind)
		}
		// RD's join shares processors with its consumer, FP's does not: only
		// RD's folded join tags its rows.
		shares := slices.ContainsFunc(jn.Op.Procs, func(p int) bool { return slices.Contains(jn.Out.To.Op.Procs, p) })
		if shares != (kind == strategy.RD) {
			t.Fatalf("%v: join shares processors with its consumer: %v", kind, shares)
		}
		w.Estimate(func(leaf int) int { return db.Relation(leaf).Card() })
		procs := len(jn.Op.Procs)
		// Each process's operand rows, routed the way redistribution routes
		// them, and the first rows of each as the deletions of a round.
		var input [2][][]relation.Tuple
		for p := Build; p <= Probe; p++ {
			input[p] = make([][]relation.Tuple, procs)
			for _, tp := range db.Relation(jn.In[p].Op.Leaf).Tuples {
				i := relation.HashKey(tp.Get(jn.In[p].Out.Route), procs)
				input[p][i] = append(input[p][i], tp)
			}
		}
		for _, arm := range []struct{ outOfCore, resident bool }{{false, false}, {true, false}, {false, true}} {
			t.Run(fmt.Sprintf("%v/out of core %v/resident %v", kind, arm.outOfCore, arm.resident), func(t *testing.T) {
				var sp *Spill
				if arm.outOfCore {
					meter := spill.NewMeter(2048)
					sp = &Spill{Meter: meter, Dir: t.TempDir(), Pool: relation.NewBatchPoolAccounted(64, 4, meter.Add)}
				}
				want, got := map[taggedRow]int{}, map[taggedRow]int{}
				record := func(into map[taggedRow]int, res *relation.Batch, tags []int32, sign int8, proc int32) {
					if res.Len() > 0 && (tags != nil) != (proc < 0 && shares) {
						t.Fatalf("%d result rows with tags %v from processor %d", res.Len(), tags != nil, proc)
					}
					for i := range res.Len() {
						p := proc
						if tags != nil {
							p = tags[i]
						}
						into[taggedRow{res.Tuple(i), sign, p}]++
					}
				}
				// run feeds j the rows of processes procs, in random batches
				// of random processes, with one mark per port at the end of
				// its rows, then — resident — a round of deletions.
				run := func(j *Join, into map[taggedRow]int, proc int32, of []int, seed int64) {
					rng := rand.New(rand.NewSource(seed))
					j.Start(arm.resident, sp)
					var res relation.Batch
					apply := func(m Msg) {
						r, err := j.ApplyInto(&res, m)
						if err != nil {
							t.Fatal(err)
						}
						if r != nil {
							record(into, r, j.Tags(), m.Sign, proc)
						}
					}
					round := func(sign int8, rows func(p Port, i int) []relation.Tuple) {
						var left [2][][]relation.Tuple
						for p := Build; p <= Probe; p++ {
							for _, i := range of {
								left[p] = append(left[p], rows(p, i))
							}
						}
						for open := [2]bool{true, true}; open[Build] || open[Probe]; {
							p := Port(rng.Intn(2))
							if !open[p] {
								p = 1 - p
							}
							var pending []int
							for k, rows := range left[p] {
								if len(rows) > 0 {
									pending = append(pending, k)
								}
							}
							if len(pending) == 0 {
								open[p] = false
								for _, h := range j.EOS(p) {
									apply(h)
								}
								continue
							}
							k := pending[rng.Intn(len(pending))]
							n := min(len(left[p][k]), 1+rng.Intn(40))
							b := relation.NewBatch(n)
							b.AppendTuples(left[p][k][:n])
							left[p][k] = left[p][k][n:]
							m := Msg{Batch: b, Port: p, Sign: sign}
							if !j.Hold(m) {
								apply(m)
							}
						}
						if !j.Done() {
							t.Fatal("join not done after its marks")
						}
					}
					round(Insert, func(p Port, i int) []relation.Tuple { return input[p][i] })
					if arm.resident {
						round(Delete, func(p Port, i int) []relation.Tuple { return input[p][i][:len(input[p][i])/5] })
					}
					err := j.Drain(func(r *relation.Batch, tags []int32) error {
						record(into, r, tags, Insert, proc)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					j.Release()
				}
				all := make([]int, procs)
				for i := range procs {
					var j Join
					j.Init(jn, 64)
					j.Expect(Build, 1)
					j.Expect(Probe, 1)
					proc := int32(-1) // a row of an operator that shares no processor with its consumer is remote whoever made it
					if shares {
						proc = int32(jn.Op.Procs[i])
					}
					run(&j, want, proc, []int{i}, int64(i))
					all[i] = i
				}
				var j Join
				j.Init(jn, 64)
				j.Fold(procs)
				j.Expect(Build, 1)
				j.Expect(Probe, 1)
				run(&j, got, -1, all, 1995)
				if len(want) == 0 {
					t.Fatal("the processes produced nothing")
				}
				if !maps.Equal(got, want) {
					t.Errorf("the folded join produced %d distinct tagged rows, the processes %d, and they differ", len(got), len(want))
				}
				if sp != nil && sp.Meter.Partitions() == 0 {
					t.Error("nothing spilled")
				}
			})
		}
	}
}
