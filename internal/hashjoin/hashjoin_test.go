package hashjoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multijoin/internal/relation"
)

// makeOperands builds two 1:1-joinable relations of cardinality n: the lower
// operand's Unique2 values equal the higher operand's Unique1 values through
// a shared boundary permutation.
func makeOperands(n int, seed int64) (lower, higher *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	boundary := rng.Perm(n)
	lower = relation.New("L", 208)
	higher = relation.New("H", 208)
	for j := 0; j < n; j++ {
		lower.Append(relation.Tuple{
			Unique1: int64(rng.Intn(n * 10)),
			Unique2: int64(boundary[j]),
			Check:   uint64(j) + 1,
		})
		higher.Append(relation.Tuple{
			Unique1: int64(boundary[j]),
			Unique2: int64(rng.Intn(n * 10)),
			Check:   uint64(j) + 100000,
		})
	}
	// Shuffle higher so the operands are not row-aligned.
	rng.Shuffle(n, func(i, j int) {
		higher.Tuples[i], higher.Tuples[j] = higher.Tuples[j], higher.Tuples[i]
	})
	return lower, higher
}

func TestSpecAttrs(t *testing.T) {
	s := Spec{BuildIsLower: true}
	if s.BuildAttr() != relation.Unique2 || s.ProbeAttr() != relation.Unique1 {
		t.Error("lower operand must join on Unique2, higher on Unique1")
	}
	s = Spec{BuildIsLower: false}
	if s.BuildAttr() != relation.Unique1 || s.ProbeAttr() != relation.Unique2 {
		t.Error("mirrored spec attributes wrong")
	}
}

func TestSpecResultOrientation(t *testing.T) {
	lo := relation.Tuple{Unique1: 1, Unique2: 5, Check: 10}
	hi := relation.Tuple{Unique1: 5, Unique2: 9, Check: 20}
	// Build = lower.
	r1 := Spec{BuildIsLower: true}.Result(lo, hi)
	// Build = higher (mirrored): the build argument is now hi.
	r2 := Spec{BuildIsLower: false}.Result(hi, lo)
	if r1 != r2 {
		t.Errorf("result must not depend on build/probe roles: %+v vs %+v", r1, r2)
	}
	if r1.Unique1 != 1 || r1.Unique2 != 9 {
		t.Errorf("result attrs (%d,%d), want (1,9)", r1.Unique1, r1.Unique2)
	}
	if r1.Check != relation.CombineChecks(10, 20) {
		t.Error("result check must combine lower then higher")
	}
}

func TestTable(t *testing.T) {
	tab := NewTable(relation.Unique1)
	if tab.Attr() != relation.Unique1 {
		t.Error("Attr() wrong")
	}
	tab.Insert(relation.Tuple{Unique1: 3, Check: 1})
	tab.Insert(relation.Tuple{Unique1: 3, Check: 2})
	tab.Insert(relation.Tuple{Unique1: 4, Check: 3})
	if tab.Len() != 3 {
		t.Errorf("Len = %d", tab.Len())
	}
	if len(tab.Matches(3)) != 2 || len(tab.Matches(4)) != 1 || tab.Matches(99) != nil {
		t.Error("Matches wrong")
	}
}

// processKeys returns count keys of a dense key domain that one consumer
// process of a join on n processes receives by redistribution (bucket 0 of
// relation.HashKey(k, n)), in random arrival order.
func processKeys(n, count int, seed int64) []int64 {
	bkt := relation.NewBucketer(n)
	keys := make([]int64, 0, count)
	for k := int64(0); len(keys) < count; k++ {
		if bkt.Bucket(k) == 0 {
			keys = append(keys, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// slotsVisited returns how many slots a lookup of the stored key k reads,
// from its home slot to its own.
func slotsVisited(tab *Table, k int64) int {
	visited := 1
	for s := tab.home(k); tab.head[s] == 0 || tab.keys[s] != k; s = (s + 1) & tab.mask {
		visited++
	}
	return visited
}

// TestTableSpreadsPartitionedKeys: the keys redistribution routes to one
// join process agree on relation.HashKey modulo the process count, and the
// table's home slot must not read the bits that agreement fixes — with
// low-bit homes a hit walked 5.8 slots at n = 16 and 32 at n = 128.
func TestTableSpreadsPartitionedKeys(t *testing.T) {
	for _, n := range []int{1, 2, 8, 16, 40, 80, 128} {
		for _, count := range []int{500, 20000} {
			keys := processKeys(n, count, int64(n))
			tab := NewTableSized(relation.Unique1, len(keys))
			for _, k := range keys {
				tab.Insert(relation.Tuple{Unique1: k})
			}
			visited := 0
			for _, k := range keys {
				visited += slotsVisited(tab, k)
			}
			mean := float64(visited) / float64(len(keys))
			t.Logf("n=%d, %d keys: %.2f slots per hit", n, count, mean)
			if mean > 2 {
				t.Errorf("n=%d, %d keys: %.2f slots per hit, want at most 2", n, count, mean)
			}
			tab.Release()
		}
	}
}

func TestSimpleJoinOneToOne(t *testing.T) {
	lower, higher := makeOperands(500, 1)
	out := Join(lower, higher, Spec{BuildIsLower: true}, false)
	if out.Card() != 500 {
		t.Fatalf("result card %d, want 500", out.Card())
	}
}

func TestPipeliningMatchesSimple(t *testing.T) {
	lower, higher := makeOperands(300, 2)
	spec := Spec{BuildIsLower: true}
	simple := Join(lower, higher, spec, false)
	pipe := Join(lower, higher, spec, true)
	if d := relation.DiffMultiset(simple, pipe); d != "" {
		t.Errorf("pipelining differs from simple: %s", d)
	}
}

func TestMirroredSpecSameResult(t *testing.T) {
	lower, higher := makeOperands(200, 3)
	a := Join(lower, higher, Spec{BuildIsLower: true}, false)
	// Mirrored: build on the higher operand.
	b := Join(higher, lower, Spec{BuildIsLower: false}, false)
	if d := relation.DiffMultiset(a, b); d != "" {
		t.Errorf("mirrored join differs: %s", d)
	}
}

func TestSimpleJoinDuplicates(t *testing.T) {
	build := relation.New("B", 208)
	probe := relation.New("P", 208)
	// Two build tuples share the key; three probe tuples match it.
	build.Append(
		relation.Tuple{Unique2: 7, Check: 1},
		relation.Tuple{Unique2: 7, Check: 2},
		relation.Tuple{Unique2: 8, Check: 3},
	)
	probe.Append(
		relation.Tuple{Unique1: 7, Check: 4},
		relation.Tuple{Unique1: 7, Check: 5},
		relation.Tuple{Unique1: 7, Check: 6},
		relation.Tuple{Unique1: 9, Check: 7},
	)
	out := Join(build, probe, Spec{BuildIsLower: true}, false)
	if out.Card() != 6 {
		t.Errorf("duplicate join card %d, want 2*3=6", out.Card())
	}
	pipe := Join(build, probe, Spec{BuildIsLower: true}, true)
	if d := relation.DiffMultiset(out, pipe); d != "" {
		t.Errorf("pipelining disagrees on duplicates: %s", d)
	}
}

func TestEmptyOperands(t *testing.T) {
	empty := relation.New("E", 208)
	other := relation.New("O", 208)
	other.Append(relation.Tuple{Unique1: 1, Unique2: 2})
	for _, pipelined := range []bool{false, true} {
		if got := Join(empty, other, Spec{BuildIsLower: true}, pipelined); got.Card() != 0 {
			t.Errorf("empty build join card %d (pipelined=%v)", got.Card(), pipelined)
		}
		if got := Join(other, empty, Spec{BuildIsLower: true}, pipelined); got.Card() != 0 {
			t.Errorf("empty probe join card %d (pipelined=%v)", got.Card(), pipelined)
		}
	}
	// A probe of a table holding nothing — never filled, then emptied again
	// by Delete — leaves the results already in dst untouched.
	tab := NewTable(relation.Unique1)
	var probe, dst relation.Batch
	probe.AppendTuples(other.Tuples)
	dst.Append(7, 8, 9)
	for _, emptied := range []bool{false, true} {
		if emptied {
			tab.Insert(other.Tuples[0])
			tab.Delete(other.Tuples[0])
		}
		tab.ProbeBatchInto(&dst, &probe, relation.Unique1, true, nil)
		if dst.Len() != 1 || dst.Tuple(0) != (relation.Tuple{Unique1: 7, Unique2: 8, Check: 9}) {
			t.Errorf("probe of an empty table (emptied=%v) changed dst to %v", emptied, dst.Tuples())
		}
	}
}

// rel returns a batch's tuples as a relation, for multiset comparison.
func rel(b *relation.Batch) *relation.Relation {
	out := relation.New("out", 208)
	b.AppendTo(out)
	return out
}

func TestPipeliningEmitsEarly(t *testing.T) {
	// The defining property of the pipelining join (Section 2.3.2): results
	// appear before either operand is complete.
	j := NewPipeliningSized(Spec{BuildIsLower: true}, 0)
	var out relation.Batch
	j.FromBuildSideBatchInto(&out, batchOf([]relation.Tuple{{Unique2: 1, Check: 1}}))
	if out.Len() != 0 {
		t.Fatal("no match possible yet")
	}
	j.FromProbeSideBatchInto(&out, batchOf([]relation.Tuple{{Unique1: 1, Check: 2}}))
	if out.Len() != 1 {
		t.Fatalf("expected early result, got %d", out.Len())
	}
	// The simple join by contrast produces nothing until its probe phase,
	// which the engine only enters after the full build.
	s := NewPipeliningSized(Spec{BuildIsLower: true}, 0)
	out.Reset()
	s.FromBuildSideBatchInto(&out, batchOf([]relation.Tuple{{Unique2: 1, Check: 1}}))
	if b, p := s.Sizes(); b != 1 || p != 0 || out.Len() != 0 {
		t.Errorf("simple join after one build tuple: Sizes (%d,%d), %d results", b, p, out.Len())
	}
}

func TestPipeliningBatchInterleavingInvariance(t *testing.T) {
	// The result multiset must not depend on how operands are interleaved.
	lower, higher := makeOperands(128, 4)
	spec := Spec{BuildIsLower: true}
	want := Join(lower, higher, spec, false)

	j := NewPipeliningSized(spec, 0)
	var out relation.Batch
	// Feed all of the probe side first, then all of the build side.
	j.FromProbeSideBatchInto(&out, batchOf(higher.Tuples))
	j.FromBuildSideBatchInto(&out, batchOf(lower.Tuples))
	if d := relation.DiffMultiset(rel(&out), want); d != "" {
		t.Errorf("probe-first interleaving differs: %s", d)
	}
}

func TestPipeliningCloseSides(t *testing.T) {
	spec := Spec{BuildIsLower: true}
	j := NewPipeliningSized(spec, 0)
	var out relation.Batch
	j.FromBuildSideBatchInto(&out, batchOf([]relation.Tuple{{Unique2: 1, Check: 1}}))
	j.CloseBuildSide()
	if !j.SideClosed(true) || j.SideClosed(false) {
		t.Error("closed flags wrong")
	}
	// Probe tuples arriving after the build side closed still find matches
	// but are no longer inserted into the probe table.
	j.FromProbeSideBatchInto(&out, batchOf([]relation.Tuple{{Unique1: 1, Check: 2}}))
	if out.Len() != 1 {
		t.Fatalf("match after close missing")
	}
	_, probeLen := j.Sizes()
	if probeLen != 0 {
		t.Errorf("probe table grew to %d after build side closed", probeLen)
	}
}

func TestPipeliningCloseCorrectness(t *testing.T) {
	// Closing a side once its input really ended never changes the result.
	lower, higher := makeOperands(100, 5)
	spec := Spec{BuildIsLower: true}
	want := Join(lower, higher, spec, false)
	j := NewPipeliningSized(spec, 0)
	var out relation.Batch
	j.FromBuildSideBatchInto(&out, batchOf(lower.Tuples))
	j.CloseBuildSide()
	j.FromProbeSideBatchInto(&out, batchOf(higher.Tuples))
	j.CloseProbeSide()
	if d := relation.DiffMultiset(rel(&out), want); d != "" {
		t.Errorf("result after closing differs: %s", d)
	}
}

// TestSimpleJoinCost pins what a simple join costs. After a build of n rows
// and one probe it holds the n build rows and no probe-side table at all:
// Sizes (n, 0) and the MemBytes of its build table. One join's life —
// construct, one 256-row batch on a side, close that side, one batch on the
// other side, Release — builds one table, whichever side it is, and
// allocates nothing: the join is a value and the table comes recycled.
func TestSimpleJoinCost(t *testing.T) {
	const n = 256
	var build, probe relation.Batch
	for i := range n {
		build.Append(int64(i), int64(i), uint64(i))
		probe.Append(int64(i), int64(i), uint64(i))
	}
	spec := Spec{BuildIsLower: true}
	dst := relation.NewBatch(2 * n)

	s := NewPipeliningSized(spec, n)
	s.FromBuildSideBatchInto(dst, &build)
	s.CloseBuildSide()
	s.FromProbeSideBatchInto(dst, &probe)
	if b, p := s.Sizes(); b != n || p != 0 || dst.Len() != n {
		t.Errorf("simple join: Sizes (%d,%d) and %d results, want (%d,0) and %d", b, p, dst.Len(), n, n)
	}
	if s.probeTable != nil || s.MemBytes() != s.buildTable.MemBytes() {
		t.Errorf("simple join carries a probe-side table: MemBytes %d, build table %d", s.MemBytes(), s.buildTable.MemBytes())
	}
	s.Release()

	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	for _, buildFirst := range []bool{true, false} {
		allocs := testing.AllocsPerRun(100, func() {
			j := NewPipeliningSized(spec, n)
			joinLife(&j, dst, &build, &probe, buildFirst)
		})
		t.Logf("allocations per life (build side first %v): %.0f", buildFirst, allocs)
		if allocs > 0 {
			t.Errorf("allocations per life (build side first %v): %.0f, want 0", buildFirst, allocs)
		}
	}
}

// joinLife runs the rest of one join's life on j: one batch on the first
// side — the build side when buildFirst is set — that side closed, one batch
// on the other side into dst, Release.
func joinLife(j *Pipelining, dst, build, probe *relation.Batch, buildFirst bool) {
	dst.Reset()
	if buildFirst {
		j.FromBuildSideBatchInto(dst, build)
		j.CloseBuildSide()
		j.FromProbeSideBatchInto(dst, probe)
	} else {
		j.FromProbeSideBatchInto(dst, probe)
		j.CloseProbeSide()
		j.FromBuildSideBatchInto(dst, build)
	}
	j.Release()
}

// TestPipeliningTableLifecycle pins when a join holds which table: none
// while fresh; both while both operands are open; after an operand ends,
// only the ended operand's own table, which the other side still probes;
// and none ever for a side whose other operand ended before its first batch.
func TestPipeliningTableLifecycle(t *testing.T) {
	const n = 64
	lower, higher := makeOperands(n, 7)
	spec := Spec{BuildIsLower: true}
	for _, closeBuild := range []bool{false, true} {
		j := NewPipeliningSized(spec, n)
		if m := j.MemBytes(); m != 0 {
			t.Fatalf("a fresh join holds %d bytes of tables", m)
		}
		var out relation.Batch
		j.FromBuildSideBatchInto(&out, batchOf(lower.Tuples))
		j.FromProbeSideBatchInto(&out, batchOf(higher.Tuples))
		if b, p := j.Sizes(); b != n || p != n || j.MemBytes() != j.buildTable.MemBytes()+j.probeTable.MemBytes() {
			t.Fatalf("both operands open: Sizes (%d,%d), want (%d,%d)", b, p, n, n)
		}
		live := j.buildTable
		if closeBuild {
			j.CloseBuildSide()
		} else {
			j.CloseProbeSide()
			live = j.probeTable
		}
		b, p := j.Sizes()
		if closeBuild && (b != n || p != 0 || j.probeTable != nil) || !closeBuild && (b != 0 || p != n || j.buildTable != nil) {
			t.Errorf("build side closed %v: Sizes (%d,%d), the other operand's table not given back", closeBuild, b, p)
		}
		if j.MemBytes() != live.MemBytes() {
			t.Errorf("build side closed %v: MemBytes %d, the live table's %d", closeBuild, j.MemBytes(), live.MemBytes())
		}
		j.Release()
	}

	// The other operand ended first: batches on this side only probe.
	j := NewPipeliningSized(spec, n)
	j.CloseProbeSide()
	b := batchOf(lower.Tuples)
	dst := relation.NewBatch(n)
	j.FromBuildSideBatchInto(dst, b)
	if j.buildTable != nil || j.MemBytes() != 0 {
		t.Fatalf("a build side whose probe operand had ended created a table of %d bytes", j.MemBytes())
	}
	if !exactAllocs {
		t.Skip("allocation counts are not exact under -race or -tags pooldebug")
	}
	if allocs := testing.AllocsPerRun(100, func() { dst.Reset(); j.FromBuildSideBatchInto(dst, b) }); allocs != 0 {
		t.Errorf("a build batch after the probe operand ended allocates %.0f times, want 0", allocs)
	}
}

// TestRetractWithoutTable: a deletion on a side that has no table yet — a
// resident join whose first round on the operand is a delete — finds
// nothing: every row is unmatched and nothing is emitted, however much the
// other side's table holds.
func TestRetractWithoutTable(t *testing.T) {
	lower, higher := makeOperands(32, 8)
	j := NewPipeliningSized(Spec{BuildIsLower: true}, 0)
	var out relation.Batch
	j.FromProbeSideBatchInto(&out, batchOf(higher.Tuples))
	del := batchOf(lower.Tuples)
	j.RetractInto(&out, del, true)
	if out.Len() != 0 || del.Len() != 0 || j.buildTable != nil {
		t.Errorf("a retraction without a table emitted %d rows and kept %d", out.Len(), del.Len())
	}
	if u := j.Unmatched(); u != 32 {
		t.Errorf("Unmatched = %d, want 32", u)
	}
	j.Release()
}

// TestJoinAlgorithmsAgreeProperty: on random multisets with arbitrary key
// skew, the simple and pipelining joins agree with each other and with the
// MapTable oracle (MapJoin), in both orientations.
func TestJoinAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, keys uint8) bool {
		n := int(nRaw%60) + 1
		k := int64(keys%10) + 1
		rng := rand.New(rand.NewSource(seed))
		lower := relation.New("L", 208)
		higher := relation.New("H", 208)
		for i := 0; i < n; i++ {
			lower.Append(relation.Tuple{
				Unique1: rng.Int63n(100), Unique2: rng.Int63n(k), Check: rng.Uint64(),
			})
			higher.Append(relation.Tuple{
				Unique1: rng.Int63n(k), Unique2: rng.Int63n(100), Check: rng.Uint64(),
			})
		}
		spec, mirrored := Spec{BuildIsLower: true}, Spec{BuildIsLower: false}
		want := MapJoin(lower, higher, spec)
		for _, got := range []*relation.Relation{
			MapJoin(higher, lower, mirrored),
			Join(lower, higher, spec, false),
			Join(lower, higher, spec, true),
			Join(higher, lower, mirrored, false),
			Join(higher, lower, mirrored, true),
		} {
			if !relation.EqualMultiset(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPipeliningMemorySizes(t *testing.T) {
	// The pipelining join's documented cost: it holds both operands.
	lower, higher := makeOperands(64, 6)
	j := NewPipeliningSized(Spec{BuildIsLower: true}, 0)
	var out relation.Batch
	j.FromBuildSideBatchInto(&out, batchOf(lower.Tuples))
	j.FromProbeSideBatchInto(&out, batchOf(higher.Tuples))
	b, p := j.Sizes()
	if b != 64 || p != 64 {
		t.Errorf("Sizes = (%d,%d), want (64,64)", b, p)
	}
}

// TestAppendResult: after any sequence of signed insert and retraction
// batches on both sides of a join that closes neither — the resident join of
// a view — AppendResult yields exactly the join of the surviving operands,
// in both orientations. Narrow keys make duplicate chains; every round also
// retracts one key's whole chain on each side, which empties its slot
// (clearSlot); and a small hint makes the tables grow. A join with a side
// that has no table appends nothing.
func TestAppendResult(t *testing.T) {
	const keys = 13
	for _, buildIsLower := range []bool{true, false} {
		spec := Spec{BuildIsLower: buildIsLower}
		rng := rand.New(rand.NewSource(1995))
		gen := func(build bool) relation.Tuple {
			k, other := rng.Int63n(keys), rng.Int63n(1000)
			if build == buildIsLower { // the lower operand joins on Unique2
				return relation.Tuple{Unique1: other, Unique2: k, Check: rng.Uint64()}
			}
			return relation.Tuple{Unique1: k, Unique2: other, Check: rng.Uint64()}
		}
		j := NewPipeliningSized(spec, 4)
		live := [2]*relation.Relation{relation.New("B", 208), relation.New("P", 208)}
		attrs := [2]relation.Attr{spec.BuildAttr(), spec.ProbeAttr()}
		var out relation.Batch
		var cleared int
		for round := 0; round < 40; round++ {
			for side, build := range []bool{true, false} {
				var ins relation.Batch
				for i := rng.Intn(12); i > 0; i-- {
					tp := gen(build)
					ins.AppendTuple(tp)
					live[side].Append(tp)
				}
				out.Reset()
				if build {
					j.FromBuildSideBatchInto(&out, &ins)
				} else {
					j.FromProbeSideBatchInto(&out, &ins)
				}
				// Retract some survivors, one key's whole chain and a ghost.
				gone := rng.Int63n(keys)
				var del relation.Batch
				kept := live[side].Tuples[:0]
				for _, tp := range live[side].Tuples {
					if tp.Get(attrs[side]) == gone || rng.Intn(4) == 0 {
						del.AppendTuple(tp)
					} else {
						kept = append(kept, tp)
					}
				}
				live[side].Tuples = kept
				del.AppendTuple(relation.Tuple{Unique1: -1, Unique2: -1})
				tab := j.probeTable
				if build {
					tab = j.buildTable
				}
				used := 0
				if tab != nil {
					used = tab.used
				}
				out.Reset()
				j.RetractInto(&out, &del, build)
				if tab != nil && tab.used < used {
					cleared++
				}
				if u := j.Unmatched(); u != 1 {
					t.Fatalf("BuildIsLower=%v round %d: Unmatched = %d, want the one ghost", buildIsLower, round, u)
				}
			}
			got := relation.New("got", 208)
			j.AppendResult(got)
			if want := Join(live[0], live[1], spec, false); !relation.EqualMultiset(got, want) {
				t.Fatalf("BuildIsLower=%v round %d: AppendResult: %s", buildIsLower, round, relation.DiffMultiset(got, want))
			}
		}
		if cleared == 0 {
			t.Errorf("BuildIsLower=%v: no retraction emptied a slot", buildIsLower)
		}
		j.Release()

		one := NewPipeliningSized(spec, 0)
		one.FromBuildSideBatchInto(&out, batchOf([]relation.Tuple{gen(true)}))
		got := relation.New("got", 208)
		one.AppendResult(got)
		var none Pipelining
		none.AppendResult(got)
		if got.Card() != 0 {
			t.Errorf("BuildIsLower=%v: a join with a nil side appended %d tuples", buildIsLower, got.Card())
		}
		one.Release()
	}
}
