package relation

import (
	"math/rand"
	"slices"
	"testing"
)

func randBatch(rng *rand.Rand, n int) *Batch {
	b := NewBatch(n)
	for i := 0; i < n; i++ {
		b.Append(rng.Int63(), rng.Int63(), rng.Uint64())
	}
	return b
}

func batchesEqual(t *testing.T, name string, got, want *Batch) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", name, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.Tuple(i) != want.Tuple(i) {
			t.Fatalf("%s: tuple %d = %v, want %v", name, i, got.Tuple(i), want.Tuple(i))
		}
	}
}

// TestSignedBlockRoundTrip round-trips mixed-sign deltas through single
// blocks and through the splitting encoder, across sizes that cover empty
// sides, bitmap byte boundaries, and multi-block splits.
func TestSignedBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	sizes := [][2]int{{0, 0}, {1, 0}, {0, 1}, {7, 9}, {8, 8}, {300, 212}, {512, 0}, {600, 1300}}
	for _, sz := range sizes {
		ins, del := randBatch(rng, sz[0]), randBatch(rng, sz[1])
		var enc []byte
		if sz[0]+sz[1] <= MaxBlockTuples {
			enc = AppendSignedBlockBytes(nil, ins, del)
			if sz[0]+sz[1] > 0 && len(enc) != SignedBlockBytes(sz[0]+sz[1]) {
				t.Fatalf("size %v: encoded %d bytes, want %d", sz, len(enc), SignedBlockBytes(sz[0]+sz[1]))
			}
			gotIns, gotDel := NewBatch(0), NewBatch(0)
			if err := DecodeSignedBlocks(enc, gotIns, gotDel); err != nil {
				t.Fatalf("size %v: decode: %v", sz, err)
			}
			batchesEqual(t, "single-block ins", gotIns, ins)
			batchesEqual(t, "single-block del", gotDel, del)
		}
		enc = AppendSignedBlocksBytes(nil, ins, del, 128)
		gotIns, gotDel := NewBatch(0), NewBatch(0)
		if err := DecodeSignedBlocks(enc, gotIns, gotDel); err != nil {
			t.Fatalf("size %v: decode split: %v", sz, err)
		}
		batchesEqual(t, "split ins", gotIns, ins)
		batchesEqual(t, "split del", gotDel, del)
		rowsEqual(t, "split", enc, ins, del)
	}
}

// rowsEqual checks that DecodeSignedTuples decodes enc into exactly the
// rows of ins and del, in slices of exactly their length.
func rowsEqual(t *testing.T, name string, enc []byte, ins, del *Batch) {
	t.Helper()
	gotIns, gotDel, err := DecodeSignedTuples(nil, nil, enc)
	if err != nil {
		t.Fatalf("%s: DecodeSignedTuples: %v", name, err)
	}
	if !slices.Equal(gotIns, ins.Tuples()) || !slices.Equal(gotDel, del.Tuples()) {
		t.Fatalf("%s: DecodeSignedTuples gave %d+%d rows, want %d+%d", name, len(gotIns), len(gotDel), ins.Len(), del.Len())
	}
	if cap(gotIns) != len(gotIns) || cap(gotDel) != len(gotDel) {
		t.Fatalf("%s: row slices of capacity %d+%d for %d+%d rows", name, cap(gotIns), cap(gotDel), len(gotIns), len(gotDel))
	}
	// Decoding again appends: each side keeps its rows and takes a second
	// copy after them.
	twiceIns, twiceDel, err := DecodeSignedTuples(gotIns, gotDel, enc)
	if err != nil || !slices.Equal(twiceIns, slices.Concat(gotIns, gotIns)) || !slices.Equal(twiceDel, slices.Concat(gotDel, gotDel)) {
		t.Fatalf("%s: a second decode gave %d+%d rows (%v), want %d+%d", name, len(twiceIns), len(twiceDel), err, 2*len(gotIns), 2*len(gotDel))
	}
}

// TestSignedBlocksInterleaveUnsigned checks a stream mixing unsigned and
// signed blocks decodes correctly: unsigned rows land on the insert side.
func TestSignedBlocksInterleaveUnsigned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plain, ins, del := randBatch(rng, 40), randBatch(rng, 17), randBatch(rng, 23)
	enc := AppendBlocksBytes(nil, plain, 16)
	enc = AppendSignedBlocksBytes(enc, ins, del, 10)
	gotIns, gotDel := NewBatch(0), NewBatch(0)
	if err := DecodeSignedBlocks(enc, gotIns, gotDel); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := NewBatch(0)
	want.AppendRange(plain, 0, plain.Len())
	want.AppendRange(ins, 0, ins.Len())
	batchesEqual(t, "mixed ins", gotIns, want)
	batchesEqual(t, "mixed del", gotDel, del)
	rowsEqual(t, "mixed", enc, want, del)
	for _, cut := range []int{1, BlockHeaderBytes + 1, len(enc) - 1} {
		if _, _, err := DecodeSignedTuples(nil, nil, enc[:cut]); err == nil {
			t.Fatalf("DecodeSignedTuples accepted %d of %d bytes", cut, len(enc))
		}
	}
}

// TestRowDecodersAllocateOnce pins the allocations of the row-form
// decoders the serve front door runs per frame: into nil destinations, one
// exact-size slice for a 256-tuple DATA block and one per side of a 64+64
// delta; into recycled slices with room, none; appended to a few rows at a
// time, one per doubling.
func TestRowDecodersAllocateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	block := AppendBatchBytes(nil, randBatch(rng, 256))
	if n := testing.AllocsPerRun(100, func() { TuplesFromBytes(nil, block) }); n != 1 {
		t.Errorf("TuplesFromBytes of a 256-tuple block: %v allocations, want 1", n)
	}
	delta := AppendSignedBlocksBytes(nil, randBatch(rng, 64), randBatch(rng, 64), 0)
	if n := testing.AllocsPerRun(100, func() { DecodeSignedTuples(nil, nil, delta) }); n != 2 {
		t.Errorf("DecodeSignedTuples of a 64+64 delta: %v allocations, want 2", n)
	}
	rows, _ := TuplesFromBytes(nil, block)
	ins, del, _ := DecodeSignedTuples(nil, nil, delta)
	if n := testing.AllocsPerRun(100, func() {
		TuplesFromBytes(rows[:0], block)
		DecodeSignedTuples(ins[:0], del[:0], delta)
	}); n != 0 {
		t.Errorf("decoding into recycled slices: %v allocations, want 0", n)
	}
	// Decoded a row at a time into one side, as a VAPPLY round of one-tuple
	// deltas is, a side grows by doubling: 11 allocations for 1 024 rows.
	one := AppendSignedBlocksBytes(nil, randBatch(rng, 1), nil, 0)
	if n := testing.AllocsPerRun(10, func() {
		var ins, del []Tuple
		for range 1024 {
			ins, del, _ = DecodeSignedTuples(ins, del, one)
		}
	}); n != 11 {
		t.Errorf("1 024 one-row decodes appended to one slice: %v allocations, want 11", n)
	}
}

// TestSignedBlockRejectedByUnsignedReaders pins the compatibility story: a
// pre-signed-format reader must reject a signed block loudly (the flagged
// count is implausible) instead of misparsing its body.
func TestSignedBlockRejectedByUnsignedReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := AppendSignedBlockBytes(nil, randBatch(rng, 4), randBatch(rng, 4))
	if _, _, err := BlockHeader(enc); err == nil {
		t.Fatal("BlockHeader accepted a signed block")
	}
	if _, err := BlockCount(enc); err == nil {
		t.Fatal("BlockCount accepted a signed block")
	}
	if _, err := TuplesFromBytes(nil, enc); err == nil {
		t.Fatal("TuplesFromBytes accepted a signed block")
	}
}

// TestSignedBlockHeaderTruncation checks framing validation on short input.
func TestSignedBlockHeaderTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	enc := AppendSignedBlockBytes(nil, randBatch(rng, 10), nil)
	for _, cut := range []int{3, BlockHeaderBytes, len(enc) - 1} {
		if _, _, _, err := SignedBlockHeader(enc[:cut]); err == nil {
			t.Fatalf("SignedBlockHeader accepted %d of %d bytes", cut, len(enc))
		}
	}
	if _, _, signed, err := SignedBlockHeader(enc); err != nil || !signed {
		t.Fatalf("SignedBlockHeader(full) = signed %v, err %v", signed, err)
	}
}
