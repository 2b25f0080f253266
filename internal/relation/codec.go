package relation

import (
	"encoding/binary"
	"fmt"
)

// TupleWireBytes is the payload size of one tuple in the binary spill
// format (and, not coincidentally, its in-memory size): Unique1, Unique2
// and Check as three 8-byte little-endian words. Memory budgets and
// spill-file sizes are both expressed in these bytes, so "bytes spilled"
// and "bytes resident" are directly comparable.
const TupleWireBytes = 24

// BlockHeaderBytes is the size of the per-block framing: one 8-byte
// little-endian tuple count. The encoding is column-contiguous *within* a
// block — all Unique1 words, then all Unique2 words, then all Check words —
// so the count is needed up front to locate the columns; in exchange,
// encode and decode are three bulk column loops instead of a per-tuple
// three-field interleave.
const BlockHeaderBytes = 8

// BlockBytes returns the encoded size of one block of n tuples.
func BlockBytes(n int) int { return BlockHeaderBytes + n*TupleWireBytes }

// MaxBlockTuples bounds the tuples per encoded block. Writers split larger
// batches into multiple blocks, so a block-at-a-time reader needs at most
// BlockBytes(MaxBlockTuples) ≈ 12KB of staging buffer per partition,
// however large the spilled backlog was.
const MaxBlockTuples = 512

// AppendBlockBytes encodes rows [lo,hi) of a batch as one column-contiguous
// block and appends it to dst, returning the extended slice: the count
// header, the U1 column, the U2 column, the Check column.
func AppendBlockBytes(dst []byte, b *Batch, lo, hi int) []byte {
	n := hi - lo
	need := BlockBytes(n)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	binary.LittleEndian.PutUint64(dst[off:], uint64(n))
	off += BlockHeaderBytes
	for _, v := range b.U1[lo:hi] {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v))
		off += 8
	}
	for _, v := range b.U2[lo:hi] {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v))
		off += 8
	}
	for _, v := range b.Check[lo:hi] {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	return dst
}

// AppendBatchBytes encodes a whole batch as one column-contiguous block and
// appends it to dst. A file of appended blocks decodes back with
// TuplesFromBytes or block-at-a-time readers (BlockHeader/BlockCount +
// Batch.AppendColumns). Callers that must bound their read buffer split at
// MaxBlockTuples via AppendBlockBytes instead.
func AppendBatchBytes(dst []byte, b *Batch) []byte {
	return AppendBlockBytes(dst, b, 0, b.Len())
}

// AppendBlocksBytes encodes the whole batch as consecutive blocks of at
// most max tuples each (max < 1 means MaxBlockTuples) and appends them to
// dst — the framing used to ship pre-placed scan fragments over the wire;
// the receiver decodes with Batch.AppendBlocks. An empty batch encodes to
// nothing.
func AppendBlocksBytes(dst []byte, b *Batch, max int) []byte {
	if max < 1 {
		max = MaxBlockTuples
	}
	n := b.Len()
	for lo := 0; lo < n; lo += max {
		hi := lo + max
		if hi > n {
			hi = n
		}
		dst = AppendBlockBytes(dst, b, lo, hi)
	}
	return dst
}

// AppendBlocks decodes a whole number of consecutive encoded blocks (as
// produced by AppendBlocksBytes or repeated AppendBatchBytes) into b.
func (b *Batch) AppendBlocks(src []byte) error {
	for len(src) > 0 {
		n, size, err := BlockHeader(src)
		if err != nil {
			return err
		}
		b.AppendColumns(src[BlockHeaderBytes:size], n, 0, n)
		src = src[size:]
	}
	return nil
}

// BlockCount parses a block's count header alone — for streaming readers
// that read the fixed-size header first and then exactly the block body.
func BlockCount(hdr []byte) (int, error) {
	if len(hdr) < BlockHeaderBytes {
		return 0, fmt.Errorf("relation: truncated block header: %d bytes", len(hdr))
	}
	n := binary.LittleEndian.Uint64(hdr)
	if int64(n) < 0 || n > (1<<40) {
		return 0, fmt.Errorf("relation: implausible block tuple count %d", n)
	}
	return int(n), nil
}

// AppendTupleBytes encodes a slice of row-form tuples as one block —
// AppendBatchBytes for callers that hold rows (tests, the sequential
// reference).
func AppendTupleBytes(dst []byte, ts []Tuple) []byte {
	var b Batch
	b.AppendTuples(ts)
	return AppendBatchBytes(dst, &b)
}

// BlockHeader parses the framing of the block at the head of src and
// returns its tuple count and total encoded size (header included). It
// fails on a truncated header or body.
func BlockHeader(src []byte) (tuples, size int, err error) {
	if len(src) < BlockHeaderBytes {
		return 0, 0, fmt.Errorf("relation: truncated block header: %d bytes", len(src))
	}
	n := binary.LittleEndian.Uint64(src)
	if int64(n) < 0 || n > (1<<40) {
		// Counts beyond any plausible block are rejected before the size
		// arithmetic can overflow — this is also what keeps a signed block
		// (SignedBlockFlag set in the header) from misparsing here.
		return 0, 0, fmt.Errorf("relation: implausible block tuple count %d", n)
	}
	size = BlockBytes(int(n))
	if len(src) < size {
		return 0, 0, fmt.Errorf("relation: block claims %d tuples (%d bytes) but only %d bytes remain", n, size, len(src))
	}
	return int(n), size, nil
}

// AppendColumns decodes rows [lo,hi) of an n-tuple block body (the bytes
// after the count header) and appends them to b — three bulk column loops.
// The caller has validated the framing with BlockHeader.
func (b *Batch) AppendColumns(body []byte, n, lo, hi int) {
	u1 := body[:n*8]
	u2 := body[n*8 : 2*n*8]
	ck := body[2*n*8 : 3*n*8]
	for off := lo * 8; off < hi*8; off += 8 {
		b.U1 = append(b.U1, int64(binary.LittleEndian.Uint64(u1[off:])))
	}
	for off := lo * 8; off < hi*8; off += 8 {
		b.U2 = append(b.U2, int64(binary.LittleEndian.Uint64(u2[off:])))
	}
	for off := lo * 8; off < hi*8; off += 8 {
		b.Check = append(b.Check, binary.LittleEndian.Uint64(ck[off:]))
	}
}

// TuplesFromBytes decodes src (a whole number of encoded blocks) and
// appends the tuples to dst, returning the extended slice. It is the serve
// client's DATA decoder as well as the row-form oracle of tests: every
// block header is validated first, dst grows once (growTuples), and
// each block's three columns decode straight into rows — one allocation
// for a frame decoded into a nil dst. On a malformed block it returns dst
// unchanged with the error.
func TuplesFromBytes(dst []Tuple, src []byte) ([]Tuple, error) {
	total := 0
	for rest := src; len(rest) > 0; {
		n, size, err := BlockHeader(rest)
		if err != nil {
			return dst, err
		}
		total += n
		rest = rest[size:]
	}
	dst = growTuples(dst, total)
	for len(src) > 0 {
		n, size, _ := BlockHeader(src)
		body := src[BlockHeaderBytes:size]
		for i := 0; i < n; i++ {
			dst = append(dst, blockRow(body, n, i))
		}
		src = src[size:]
	}
	return dst, nil
}

// growTuples returns dst with room for n more rows: dst itself when it has
// it, otherwise a copy with room for len(dst)+n rows or twice cap(dst),
// whichever is more. An empty dst grows to exactly n; one decoded into a
// few rows at a time, as serve's VAPPLY rounds are, is copied amortized
// linear bytes in all.
func growTuples(dst []Tuple, n int) []Tuple {
	if cap(dst)-len(dst) < n {
		grown := make([]Tuple, len(dst), max(len(dst)+n, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	return dst
}

// blockRow decodes row i of an n-tuple block body (the bytes after the
// count header).
func blockRow(body []byte, n, i int) Tuple {
	return Tuple{
		Unique1: int64(binary.LittleEndian.Uint64(body[8*i:])),
		Unique2: int64(binary.LittleEndian.Uint64(body[8*(n+i):])),
		Check:   binary.LittleEndian.Uint64(body[8*(2*n+i):]),
	}
}
