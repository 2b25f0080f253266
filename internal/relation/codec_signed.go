package relation

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Signed blocks extend the columnar block format with a per-tuple sign —
// the wire form of a view-maintenance delta, where every tuple is either
// an insert (+) or a delete (−). A signed block reuses the 8-byte count
// header with SignedBlockFlag set in the high bits (plain counts are
// bounded far below it, so the flag bit is unambiguous) and appends a
// (n+7)/8-byte sign bitmap after the Check column: bit i set means tuple i
// is a delete. Unsigned blocks are unchanged, and a pre-signed-format
// reader rejects a signed block loudly (the flagged count is implausibly
// large) instead of misparsing it.

// SignedBlockFlag marks a block's count header as signed: the body carries
// a sign bitmap after the Check column.
const SignedBlockFlag uint64 = 1 << 62

// SignedBlockBytes returns the encoded size of one signed block of n
// tuples: the plain block plus the sign bitmap.
func SignedBlockBytes(n int) int { return BlockBytes(n) + (n+7)/8 }

// AppendSignedBlockBytes encodes all rows of ins (as inserts) followed by
// all rows of del (as deletes) as one signed block and appends it to dst.
// The combined count must not exceed MaxBlockTuples; nil batches read as
// empty. Callers with larger deltas split with AppendSignedBlocksBytes.
func AppendSignedBlockBytes(dst []byte, ins, del *Batch) []byte {
	ni, nd := 0, 0
	if ins != nil {
		ni = ins.Len()
	}
	if del != nil {
		nd = del.Len()
	}
	n := ni + nd
	if n > MaxBlockTuples {
		panic(fmt.Sprintf("relation: signed block of %d tuples exceeds MaxBlockTuples", n))
	}
	need := SignedBlockBytes(n)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	binary.LittleEndian.PutUint64(dst[off:], uint64(n)|SignedBlockFlag)
	off += BlockHeaderBytes
	off = putSignedColumn(dst, off, colU1, ins, del)
	off = putSignedColumn(dst, off, colU2, ins, del)
	off = putSignedColumn(dst, off, colCheck, ins, del)
	// Sign bitmap: the first ni bits stay zero; bits ni..n-1 mark deletes.
	for i := ni; i < n; i++ {
		dst[off+i/8] |= 1 << (i % 8)
	}
	return dst
}

const (
	colU1 = iota
	colU2
	colCheck
)

// putSignedColumn writes one column of a signed block — ins rows then del
// rows — at off and returns the offset past it.
func putSignedColumn(dst []byte, off, col int, ins, del *Batch) int {
	for _, b := range [2]*Batch{ins, del} {
		if b == nil {
			continue
		}
		switch col {
		case colU1:
			for _, v := range b.U1 {
				binary.LittleEndian.PutUint64(dst[off:], uint64(v))
				off += 8
			}
		case colU2:
			for _, v := range b.U2 {
				binary.LittleEndian.PutUint64(dst[off:], uint64(v))
				off += 8
			}
		default:
			for _, v := range b.Check {
				binary.LittleEndian.PutUint64(dst[off:], v)
				off += 8
			}
		}
	}
	return off
}

// AppendSignedBlocksBytes encodes a whole delta — ins inserts plus del
// deletes — as consecutive signed blocks of at most max tuples each
// (max < 1 means MaxBlockTuples) and appends them to dst. The receiver
// decodes with DecodeSignedBlocks. An empty delta encodes to nothing.
func AppendSignedBlocksBytes(dst []byte, ins, del *Batch, max int) []byte {
	if max < 1 || max > MaxBlockTuples {
		max = MaxBlockTuples
	}
	for _, part := range [2]struct {
		b   *Batch
		del bool
	}{{ins, false}, {del, true}} {
		if part.b == nil {
			continue
		}
		n := part.b.Len()
		for lo := 0; lo < n; lo += max {
			hi := lo + max
			if hi > n {
				hi = n
			}
			var view Batch
			view.U1 = part.b.U1[lo:hi]
			view.U2 = part.b.U2[lo:hi]
			view.Check = part.b.Check[lo:hi]
			if part.del {
				dst = AppendSignedBlockBytes(dst, nil, &view)
			} else {
				dst = AppendSignedBlockBytes(dst, &view, nil)
			}
		}
	}
	return dst
}

// SignedBlockHeader parses the framing of the block at the head of src —
// signed or unsigned — returning its tuple count, total encoded size and
// whether it carries a sign bitmap.
func SignedBlockHeader(src []byte) (tuples, size int, signed bool, err error) {
	if len(src) < BlockHeaderBytes {
		return 0, 0, false, fmt.Errorf("relation: truncated block header: %d bytes", len(src))
	}
	raw := binary.LittleEndian.Uint64(src)
	signed = raw&SignedBlockFlag != 0
	n := raw &^ SignedBlockFlag
	if int64(n) < 0 || n > (1<<40) {
		return 0, 0, false, fmt.Errorf("relation: implausible block tuple count %d", n)
	}
	size = BlockBytes(int(n))
	if signed {
		size = SignedBlockBytes(int(n))
	}
	if len(src) < size {
		return 0, 0, false, fmt.Errorf("relation: block claims %d tuples (%d bytes) but only %d bytes remain", n, size, len(src))
	}
	return int(n), size, signed, nil
}

// DecodeSignedTuples decodes src — a whole number of consecutive blocks,
// signed or unsigned — appending its insert rows to ins and its delete rows
// to del (every row of an unsigned block is an insert), and returns both.
// One pass validates and counts, so a side without room for its rows grows
// once (growTuples: to exactly the size the headers and sign bitmaps
// announce when it is empty); the second decodes each row straight into
// its side. serve's VAPPLY decoder.
func DecodeSignedTuples(ins, del []Tuple, src []byte) ([]Tuple, []Tuple, error) {
	ni, nd := 0, 0
	for rest := src; len(rest) > 0; {
		n, size, signed, err := SignedBlockHeader(rest)
		if err != nil {
			return ins, del, err
		}
		neg := 0
		if signed {
			neg = deletes(rest[BlockHeaderBytes+n*TupleWireBytes:size], n)
		}
		ni += n - neg
		nd += neg
		rest = rest[size:]
	}
	ins, del = growTuples(ins, ni), growTuples(del, nd)
	for len(src) > 0 {
		n, size, signed, _ := SignedBlockHeader(src)
		body := src[BlockHeaderBytes:size]
		for i := 0; i < n; i++ {
			if signed && body[n*TupleWireBytes+i/8]&(1<<(i%8)) != 0 {
				del = append(del, blockRow(body, n, i))
			} else {
				ins = append(ins, blockRow(body, n, i))
			}
		}
		src = src[size:]
	}
	return ins, del, nil
}

// deletes counts the set bits among the first n of a sign bitmap.
func deletes(signs []byte, n int) int {
	c := 0
	for i, b := range signs {
		if rest := n - 8*i; rest < 8 {
			b &= 1<<rest - 1
		}
		c += bits.OnesCount8(b)
	}
	return c
}

// DecodeSignedBlocks decodes src — a whole number of consecutive blocks,
// signed or unsigned — appending insert rows to ins and delete rows to del
// (every row of an unsigned block is an insert).
func DecodeSignedBlocks(src []byte, ins, del *Batch) error {
	for len(src) > 0 {
		n, size, signed, err := SignedBlockHeader(src)
		if err != nil {
			return err
		}
		body := src[BlockHeaderBytes:size]
		if !signed {
			ins.AppendColumns(body, n, 0, n)
			src = src[size:]
			continue
		}
		signs := body[n*24:]
		// Decode sign runs so the bulk column decoder still does the work.
		for lo := 0; lo < n; {
			neg := signs[lo/8]&(1<<(lo%8)) != 0
			hi := lo + 1
			for hi < n && (signs[hi/8]&(1<<(hi%8)) != 0) == neg {
				hi++
			}
			dst := ins
			if neg {
				dst = del
			}
			dst.AppendColumns(body[:n*24], n, lo, hi)
			lo = hi
		}
		src = src[size:]
	}
	return nil
}
