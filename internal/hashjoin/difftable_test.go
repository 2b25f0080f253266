package hashjoin

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"multijoin/internal/relation"
)

// sortedTuples returns a canonically ordered copy for multiset comparison.
func sortedTuples(ts []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Unique1 != b.Unique1 {
			return a.Unique1 < b.Unique1
		}
		if a.Unique2 != b.Unique2 {
			return a.Unique2 < b.Unique2
		}
		return a.Check < b.Check
	})
	return out
}

func sameMultiset(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedTuples(a), sortedTuples(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestTableMatchesMapTableRandomStreams is the differential test between the
// open-addressing Table and the retired MapTable reference: random
// interleaved build/probe streams with heavy key duplication and zero-match
// probes must see identical multisets from both tables at every step.
// `make test` runs it under -race.
func TestTableMatchesMapTableRandomStreams(t *testing.T) {
	f := func(seed int64, nRaw uint16, keyRange uint8, hintRaw uint8) bool {
		n := int(nRaw%2000) + 1
		keys := int64(keyRange%32) + 1 // small range -> many duplicates
		hint := int(hintRaw) % (n + 1) // exercise undersized and oversized tables
		rng := rand.New(rand.NewSource(seed))

		for _, attr := range []relation.Attr{relation.Unique1, relation.Unique2} {
			oa := NewTableSized(attr, hint)
			ref := NewMapTable(attr)
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 { // insert
					tp := relation.Tuple{
						Unique1: rng.Int63n(keys),
						Unique2: rng.Int63n(keys),
						Check:   rng.Uint64(),
					}
					oa.Insert(tp)
					ref.Insert(tp)
					if oa.Len() != ref.Len() {
						return false
					}
					continue
				}
				// Probe, including keys outside the inserted range
				// (zero-match probes) and negative keys.
				k := rng.Int63n(keys*2) - keys/2
				if !sameMultiset(oa.Matches(k), ref.Matches(k)) {
					return false
				}
			}
			// Final full sweep over every possible key.
			for k := int64(-1); k <= keys; k++ {
				if !sameMultiset(oa.Matches(k), ref.Matches(k)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTableFirstNextChain checks the allocation-free iteration contract
// against Matches on duplicate chains.
func TestTableFirstNextChain(t *testing.T) {
	tab := NewTableSized(relation.Unique1, 0)
	for i := 0; i < 100; i++ {
		tab.Insert(relation.Tuple{Unique1: int64(i % 7), Check: uint64(i)})
	}
	for k := int64(-2); k < 9; k++ {
		var got []relation.Tuple
		for i := tab.First(k); i >= 0; i = tab.Next(i) {
			got = append(got, tab.At(i))
		}
		if !sameMultiset(got, tab.Matches(k)) {
			t.Errorf("First/Next disagrees with Matches for key %d", k)
		}
	}
}

// TestTableGrowth forces many doublings from the minimum size and checks
// nothing is lost or duplicated across rehashes.
func TestTableGrowth(t *testing.T) {
	tab := NewTable(relation.Unique1) // minimum slots, grows ~10 times
	const n = 20000
	for i := 0; i < n; i++ {
		tab.Insert(relation.Tuple{Unique1: int64(i), Check: uint64(i)})
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		m := tab.Matches(int64(i))
		if len(m) != 1 || m[0].Check != uint64(i) {
			t.Fatalf("key %d: matches %v", i, m)
		}
	}
	if tab.Matches(n) != nil {
		t.Error("phantom match after growth")
	}
}

// TestProbeBatchIntoMatchesMapTable is the differential test for the
// vectorized two-phase batch probe: a simple join built from random tuples
// probed with whole columnar batches must emit
// exactly the result multiset a scalar walk over the retained MapTable
// oracle produces, for both build orientations, duplicate-heavy keys and
// zero-match probes. `make test` runs it under -race and `make pooldebug`
// with the pool poison detector armed.
func TestProbeBatchIntoMatchesMapTable(t *testing.T) {
	f := func(seed int64, buildRaw, probeRaw uint16, keyRange uint8, lower bool) bool {
		rng := rand.New(rand.NewSource(seed))
		nBuild := int(buildRaw % 1500)
		nProbe := int(probeRaw % 1500)
		keys := int64(keyRange%64) + 1 // small range -> long duplicate chains
		spec := Spec{BuildIsLower: lower}

		var build relation.Batch
		ref := NewMapTable(spec.BuildAttr())
		for i := 0; i < nBuild; i++ {
			tp := relation.Tuple{
				Unique1: rng.Int63n(keys),
				Unique2: rng.Int63n(keys),
				Check:   rng.Uint64(),
			}
			build.AppendTuple(tp)
			ref.Insert(tp)
		}
		j := NewPipeliningSized(spec, nBuild)
		var got relation.Batch
		j.FromBuildSideBatchInto(&got, &build)
		j.CloseBuildSide()
		if b, p := j.Sizes(); b != ref.Len() || p != 0 || got.Len() != 0 {
			return false
		}

		var probe relation.Batch
		var want []relation.Tuple
		pa := spec.ProbeAttr()
		for i := 0; i < nProbe; i++ {
			tp := relation.Tuple{
				// Keys beyond the inserted range give zero-match probes.
				Unique1: rng.Int63n(keys*2) - keys/2,
				Unique2: rng.Int63n(keys*2) - keys/2,
				Check:   rng.Uint64(),
			}
			probe.AppendTuple(tp)
			for _, m := range ref.Matches(tp.Get(pa)) {
				want = append(want, spec.Result(m, tp))
			}
		}

		// Probe in sub-batches to exercise appends into a reused dst and
		// the per-call head-phase scratch resizing.
		for lo := 0; lo < probe.Len(); {
			hi := lo + 1 + rng.Intn(512)
			if hi > probe.Len() {
				hi = probe.Len()
			}
			sub := probe.View(lo, hi)
			j.FromProbeSideBatchInto(&got, &sub)
			lo = hi
		}
		return sameMultiset(got.Tuples(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkHashTable_* measures the open-addressing table against the
// retired map reference; allocs/op is the point (0 for the sized table in
// steady state).
func benchTuples(n int) []relation.Tuple {
	rng := rand.New(rand.NewSource(7))
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = relation.Tuple{Unique1: rng.Int63n(int64(n)), Unique2: int64(i), Check: rng.Uint64()}
	}
	return ts
}

func BenchmarkHashTable_Insert(b *testing.B) {
	ts := benchTuples(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := NewTableSized(relation.Unique1, len(ts))
		for _, tp := range ts {
			tab.Insert(tp)
		}
	}
}

func BenchmarkHashTable_MapInsert(b *testing.B) {
	ts := benchTuples(40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := NewMapTable(relation.Unique1)
		for _, tp := range ts {
			tab.Insert(tp)
		}
	}
}

func BenchmarkHashTable_Probe(b *testing.B) {
	ts := benchTuples(40000)
	tab := NewTableSized(relation.Unique1, len(ts))
	for _, tp := range ts {
		tab.Insert(tp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, tp := range ts {
			for j := tab.First(tp.Unique1); j >= 0; j = tab.Next(j) {
				sink += tab.At(j).Check
			}
		}
	}
	_ = sink
}

func BenchmarkHashTable_MapProbe(b *testing.B) {
	ts := benchTuples(40000)
	tab := NewMapTable(relation.Unique1)
	for _, tp := range ts {
		tab.Insert(tp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, tp := range ts {
			for _, m := range tab.Matches(tp.Unique1) {
				sink += m.Check
			}
		}
	}
	_ = sink
}

// BenchmarkHashTable_Partitioned measures one join process's sized build
// plus batch probe over the keys redistribution routes to it among n
// processes (processKeys), in transport-sized batches: the key sets the
// runtimes' tables hold, which the unpartitioned benchmarks above and
// mjperf's kernel probes do not show. The freeRows case deletes half the
// keys after the build and inserts them again, so those batches start on
// the free-list prefix. ns/tuple is the time per key built and probed, the
// unit of mjperf's hashjoin.build_ns_per_tuple.
func BenchmarkHashTable_Partitioned(b *testing.B) {
	const keys, batchTuples = 20000, 256
	for _, c := range []struct {
		n        int
		freeRows bool
	}{{1, false}, {40, false}, {128, false}, {40, true}} {
		name := fmt.Sprintf("n=%d", c.n)
		if c.freeRows {
			name += "/freeRows"
		}
		b.Run(name, func(b *testing.B) {
			var in relation.Batch
			for _, k := range processKeys(c.n, keys, 1) {
				in.Append(k, k, uint64(k))
			}
			dst := relation.NewBatch(2 * batchTuples)
			var heads []int32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab := NewTableSized(relation.Unique1, keys)
				for lo := 0; lo < keys; lo += batchTuples {
					sub := in.View(lo, min(lo+batchTuples, keys))
					tab.InsertBatch(&sub)
				}
				if c.freeRows {
					for lo := 0; lo < keys/2; lo += batchTuples {
						sub := in.View(lo, min(lo+batchTuples, keys/2))
						tab.DeleteBatch(&sub)
					}
					for lo := 0; lo < keys/2; lo += batchTuples {
						sub := in.View(lo, min(lo+batchTuples, keys/2))
						tab.InsertBatch(&sub)
					}
				}
				for lo := 0; lo < keys; lo += batchTuples {
					sub := in.View(lo, min(lo+batchTuples, keys))
					dst.Reset()
					heads = tab.ProbeBatchInto(dst, &sub, relation.Unique2, true, heads)
				}
				tab.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/tuple")
		})
	}
}

// BenchmarkHashTable_SimpleJoin measures one full sized build+probe cycle of
// a simple join the way the runtimes drive it: 256-row transport batches
// into the build side, the build side closed, 256-row probe batches, the
// tables released, with a reused output buffer.
func BenchmarkHashTable_SimpleJoin(b *testing.B) {
	const batchTuples = 256
	var build, probe, dst relation.Batch
	build.AppendTuples(benchTuples(40000))
	probe.AppendTuples(benchTuples(40000))
	n := build.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := NewPipeliningSized(Spec{BuildIsLower: true}, n)
		dst.Reset()
		for lo := 0; lo < n; lo += batchTuples {
			sub := build.View(lo, min(lo+batchTuples, n))
			j.FromBuildSideBatchInto(&dst, &sub)
		}
		j.CloseBuildSide()
		for lo := 0; lo < n; lo += batchTuples {
			sub := probe.View(lo, min(lo+batchTuples, n))
			j.FromProbeSideBatchInto(&dst, &sub)
		}
		j.Release()
	}
}
