package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"multijoin/internal/relation"
)

const testCap = 1 << 16

// pair returns the two ends of one loopback TCP connection: a framed Conn
// and the raw socket of its peer.
func pair(t *testing.T) (*Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(ln.Addr().String(), 5*time.Second, testCap)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); peer.Close() })
	return c, peer
}

func testBatch() *relation.Batch {
	var b relation.Batch
	b.AppendTuple(relation.Tuple{Unique1: 1, Unique2: 2, Check: 3})
	b.AppendTuple(relation.Tuple{Unique1: -4, Unique2: 5, Check: 0xfeedfacecafebeef})
	return &b
}

type testMsg struct {
	Version int
	Role    string
}

// TestWritersRoundTrip sends one frame from every writer and reads each
// back through ReadFrame and its parser.
func TestWritersRoundTrip(t *testing.T) {
	w, peer := pair(t)
	r := NewConn(peer, testCap)
	want := testBatch()

	if err := w.WriteBatch(7, want); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := r.ReadFrame()
	if err != nil || kind != KindData {
		t.Fatalf("DATA: kind=0x%02x err=%v", kind, err)
	}
	sid, block, err := ParseData(payload)
	if err != nil || sid != 7 {
		t.Fatalf("ParseData: sid=%d err=%v", sid, err)
	}
	var got relation.Batch
	if err := got.AppendBlocks(block); err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Tuple(0) != want.Tuple(0) || got.Tuple(1) != want.Tuple(1) {
		t.Errorf("DATA block decoded to %v, want %v", got, *want)
	}

	if err := w.WriteStreamID(KindEOS, 9); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = r.ReadFrame()
	if err != nil || kind != KindEOS {
		t.Fatalf("EOS: kind=0x%02x err=%v", kind, err)
	}
	if sid, err := ParseStreamID(payload); err != nil || sid != 9 {
		t.Errorf("ParseStreamID: sid=%d err=%v", sid, err)
	}

	if err := w.WriteCredit(11, 1<<31); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = r.ReadFrame()
	if err != nil || kind != KindCredit {
		t.Fatalf("CREDIT: kind=0x%02x err=%v", kind, err)
	}
	if sid, n, err := ParseCredit(payload); err != nil || sid != 11 || n != 1<<31 {
		t.Errorf("ParseCredit: sid=%d n=%d err=%v", sid, n, err)
	}

	if err := w.WriteFrame(0x03, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadMsg(0x03, nil, time.Second); err != nil {
		t.Errorf("empty control frame: %v", err)
	}

	if err := w.WriteMsg(KindHello, testMsg{2, "client"}); err != nil {
		t.Fatal(err)
	}
	var m testMsg
	if err := r.ReadMsg(KindHello, &m, time.Second); err != nil || m != (testMsg{2, "client"}) {
		t.Errorf("ReadMsg: %+v err=%v", m, err)
	}

	if err := w.WriteMsg(0x20, testMsg{3, "x"}); err != nil {
		t.Fatal(err)
	}
	kind, payload, err = r.ReadFrame()
	if err != nil || kind != 0x20 {
		t.Fatalf("control frame: kind=0x%02x err=%v", kind, err)
	}
	if err := r.DecodeMsg(payload, &m); err != nil || m != (testMsg{3, "x"}) {
		t.Errorf("DecodeMsg: %+v err=%v", m, err)
	}
	if err := r.DecodeMsg([]byte{0xde, 0xad, 0xbe, 0xef}, &m); err == nil {
		t.Error("DecodeMsg accepted junk")
	}
}

// TestGoldenFrames pins the bytes of the shared kinds to what the codec
// wrote while it still lived in internal/dist (recorded from that commit's
// dist.Conn): moving it changed no byte on either wire. HELLO is left out
// because its payload is each protocol's own gob struct.
func TestGoldenFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(c *Conn) error
		want  string
	}{
		{"DATA", func(c *Conn) error { return c.WriteBatch(7, testBatch()) },
			"3d0000001007000000" + "0200000000000000" +
				"0100000000000000" + "fcffffffffffffff" +
				"0200000000000000" + "0500000000000000" +
				"0300000000000000" + "efbefecacefaedfe"},
		{"EOS", func(c *Conn) error { return c.WriteStreamID(KindEOS, 7) }, "050000001107000000"},
		{"CREDIT", func(c *Conn) error { return c.WriteCredit(7, 3) }, "09000000120700000003000000"},
		{"stream id", func(c *Conn) error { return c.WriteStreamID(0x21, 9) }, "050000002109000000"},
		{"empty", func(c *Conn) error { return c.WriteFrame(0x03, nil) }, "0100000003"},
	} {
		c, peer := pair(t)
		if err := tc.write(c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]byte, len(tc.want)/2)
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(peer, got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("%s frame = %x, want %s", tc.name, got, tc.want)
		}
	}
}

// TestReadFrameRejects covers the reader's error paths: each is an error,
// never a hang, and an over-long length prefix allocates nothing.
func TestReadFrameRejects(t *testing.T) {
	t.Run("truncated frame", func(t *testing.T) {
		c, peer := pair(t)
		peer.Write([]byte{10, 0, 0, 0, KindData, 1, 2}) // announces 10 bytes, sends 3
		peer.Close()
		if _, _, err := c.ReadFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("err = %v, want unexpected EOF", err)
		}
	})
	t.Run("closed peer", func(t *testing.T) {
		c, peer := pair(t)
		peer.Close()
		if _, _, err := c.ReadFrame(); !errors.Is(err, io.EOF) {
			t.Errorf("err = %v, want EOF", err)
		}
	})
	t.Run("zero length", func(t *testing.T) {
		c, peer := pair(t)
		peer.Write([]byte{0, 0, 0, 0})
		if _, _, err := c.ReadFrame(); err == nil {
			t.Error("accepted a frame without a kind byte")
		}
	})
	t.Run("over the cap", func(t *testing.T) {
		c, peer := pair(t)
		peer.Write([]byte{1, 0, 1, 0}) // testCap + 1; the peer stays open and sends no more
		if _, _, err := c.ReadFrame(); err == nil {
			t.Error("accepted a frame over the cap")
		}
		if cap(c.rbuf) != 0 {
			t.Errorf("read buffer grew to %d bytes for a rejected frame", cap(c.rbuf))
		}
	})
}

// TestReadMsg checks the typed error on a kind mismatch and the deadline.
func TestReadMsg(t *testing.T) {
	c, peer := pair(t)
	w := NewConn(peer, testCap)
	if err := w.WriteFrame(0x06, nil); err != nil {
		t.Fatal(err)
	}
	var u *UnexpectedFrameError
	if err := c.ReadMsg(0x02, nil, time.Second); !errors.As(err, &u) || u.Want != 0x02 || u.Got != 0x06 {
		t.Errorf("kind mismatch: err = %v, want UnexpectedFrameError{0x02, 0x06}", err)
	}

	t0 := time.Now()
	err := c.ReadMsg(KindHello, nil, 50*time.Millisecond) // the peer says nothing
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("silent peer: err = %v, want a timeout", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("50 ms deadline took %v", d)
	}
	// The deadline is cleared afterwards: a later frame still arrives.
	if err := w.WriteFrame(0x03, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(0x03, nil, 0); err != nil {
		t.Errorf("read after an expired deadline: %v", err)
	}
}

// TestWindow checks the credit window: an oversized grant returns at once,
// a blocked Take wakes on Grant and on cancellation, and Take hands out
// exactly what was granted.
func TestWindow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	expired, expire := context.WithCancel(context.Background())
	expire()

	w := NewWindow(2)
	for i := 0; i < 2; i++ {
		if err := w.Take(expired); err != nil {
			t.Fatalf("take %d of a window of 2: %v", i, err)
		}
	}
	if err := w.Take(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("third take of a window of 2: err = %v, want context.Canceled", err)
	}

	// A blocked Take wakes on Grant; three granted are three taken.
	took := make(chan error)
	go func() { took <- w.Take(ctx) }()
	select {
	case err := <-took:
		t.Fatalf("Take on an empty window returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	w.Grant(3)
	if err := <-took; err != nil {
		t.Fatalf("Take after Grant: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Take(expired); err != nil {
			t.Fatalf("take %d after Grant(3): %v", i+1, err)
		}
	}
	if err := w.Take(expired); err == nil {
		t.Fatal("Grant(3) handed out a fourth credit")
	}

	// A blocked Take wakes on cancellation.
	go func() { took <- w.Take(ctx) }()
	cancel()
	if err := <-took; !errors.Is(err, context.Canceled) {
		t.Fatalf("Take after cancel: err = %v, want context.Canceled", err)
	}

	// Grants far beyond anything spent return at once, repeatedly.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 4; i++ {
			w.Grant(1 << 31)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Grant(1<<31) blocked")
	}
	if err := w.Take(expired); err != nil {
		t.Fatalf("Take after Grant(1<<31): %v", err)
	}
}

// byteConn is a net.Conn that reads from a fixed byte string.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (b byteConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// FuzzReadFrame feeds arbitrary bytes to ReadFrame under a small cap and
// every payload it accepts on to the payload parsers and the block
// decoders behind them: none may panic, the read buffer never outgrows the
// cap, the input's end terminates the loop, and the two signed-block
// decoders agree, the row-form one into slices of exactly the decoded
// length. The seed corpus (testdata/fuzz/FuzzReadFrame) holds one real
// frame of each kind, a signed-block DATA frame, a truncated frame and an
// over-long one.
func FuzzReadFrame(f *testing.F) {
	const fuzzCap = 1 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(byteConn{r: bytes.NewReader(data)}, fuzzCap)
		for frames := 0; ; frames++ {
			_, payload, err := c.ReadFrame()
			if cap(c.rbuf) > fuzzCap {
				t.Fatalf("read buffer of %d bytes under a cap of %d", cap(c.rbuf), fuzzCap)
			}
			if err != nil {
				return
			}
			if frames > len(data) {
				t.Fatalf("%d frames out of %d bytes", frames, len(data))
			}
			ParseStreamID(payload)
			ParseCredit(payload)
			_, block, err := ParseData(payload)
			if err != nil {
				continue
			}
			if n, size, err := relation.BlockHeader(block); err == nil && (size > len(block) || n > size) {
				t.Fatalf("BlockHeader accepted %d tuples in %d of %d bytes", n, size, len(block))
			}
			if n, size, _, err := relation.SignedBlockHeader(block); err == nil && (size > len(block) || n > size) {
				t.Fatalf("SignedBlockHeader accepted %d tuples in %d of %d bytes", n, size, len(block))
			}
			var ins, del relation.Batch
			errBlocks := relation.DecodeSignedBlocks(block, &ins, &del)
			if errBlocks == nil && (ins.Len()+del.Len())*relation.TupleWireBytes > len(block) {
				t.Fatalf("DecodeSignedBlocks made %d tuples of %d bytes", ins.Len()+del.Len(), len(block))
			}
			rins, rdel, err := relation.DecodeSignedTuples(nil, nil, block)
			if (err == nil) != (errBlocks == nil) {
				t.Fatalf("DecodeSignedTuples err %v, DecodeSignedBlocks err %v", err, errBlocks)
			}
			if err == nil && (!slices.Equal(rins, ins.Tuples()) || !slices.Equal(rdel, del.Tuples()) ||
				len(rins) != cap(rins) || len(rdel) != cap(rdel)) {
				t.Fatalf("DecodeSignedTuples gave %d+%d rows (capacity %d+%d), DecodeSignedBlocks %d+%d",
					len(rins), len(rdel), cap(rins), cap(rdel), ins.Len(), del.Len())
			}
		}
	})
}

// sink is a net.Conn that keeps what is written to it: the far end of a
// Conn whose frames a test takes apart or replays.
type sink struct {
	net.Conn
	buf []byte
}

func (s *sink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// newTypes returns one value each of n distinct struct types.
func newTypes(n int) []any {
	vs := make([]any, n)
	for i := range vs {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: fmt.Sprintf("F%02d", i), Type: reflect.TypeFor[int]()},
		})
		vs[i] = reflect.New(typ).Elem().Interface()
	}
	return vs
}

// controlStream encodes msgs as the control frames one Conn writes, each
// of kind 0x20: every type is defined in the first frame that uses it.
func controlStream(msgs ...any) []byte {
	var s sink
	c := NewConn(&s, testCap)
	for _, m := range msgs {
		if err := c.WriteMsg(0x20, m); err != nil {
			panic(err)
		}
	}
	return s.buf
}

// decodedTypes is the number of type definitions c's gob decoder holds:
// the state a peer's definitions grow, which MaxTypes bounds.
func decodedTypes(t testing.TB, c *Conn) int {
	m := reflect.ValueOf(c.dec).Elem().FieldByName("wireType")
	if !m.IsValid() {
		t.Fatal("gob.Decoder has no wireType field to count")
	}
	return m.Len()
}

// TestControlStream checks that a connection's control payloads are one
// gob stream: a type's descriptor crosses once, so a later frame of the
// same type is smaller than the first, and every frame decodes in order.
func TestControlStream(t *testing.T) {
	var s sink
	w := NewConn(&s, testCap)
	r := NewConn(byteConn{r: bytes.NewReader(nil)}, testCap)
	var sizes []int
	for i := range 3 {
		s.buf = s.buf[:0]
		if err := w.WriteMsg(0x20, testMsg{i, "x"}); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(s.buf))
		var m testMsg
		if err := r.DecodeMsg(s.buf[5:], &m); err != nil || m != (testMsg{i, "x"}) {
			t.Fatalf("frame %d decoded to %+v, err %v", i, m, err)
		}
	}
	if sizes[1] >= sizes[0] || sizes[2] != sizes[1] {
		t.Errorf("frame sizes %v: want the first alone to carry the descriptor", sizes)
	}
	if r.Types() != 1 || decodedTypes(t, r) != 1 {
		t.Errorf("peer defined %d types, decoder holds %d; want 1", r.Types(), decodedTypes(t, r))
	}
}

// TestTypeCap sends one more type than a connection may define: every
// frame up to the cap decodes, the one past it fails before the decoder
// sees it, and so does every frame after, however ordinary. A payload that
// defines a type with an interface field is refused outright.
func TestTypeCap(t *testing.T) {
	r := NewConn(byteConn{r: bytes.NewReader(controlStream(newTypes(MaxTypes + 1)...))}, testCap)
	for i := range MaxTypes + 1 {
		_, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		err = r.DecodeMsg(payload, nil)
		if (err == nil) != (i < MaxTypes) {
			t.Fatalf("type %d of a cap of %d: err = %v", i+1, MaxTypes, err)
		}
	}
	if n := decodedTypes(t, r); n != MaxTypes {
		t.Errorf("decoder holds %d types, want the cap %d", n, MaxTypes)
	}
	if err := r.DecodeMsg(controlStream(testMsg{})[5:], nil); err == nil {
		t.Error("a connection past the cap decoded another frame")
	}

	type withAny struct{ V any }
	gob.Register(testMsg{})
	r = NewConn(byteConn{r: bytes.NewReader(nil)}, testCap)
	if err := r.DecodeMsg(controlStream(withAny{testMsg{}})[5:], nil); err == nil {
		t.Error("a type with an interface field was accepted")
	}
	if n := decodedTypes(t, r); n != 0 {
		t.Errorf("decoder holds %d types after a refused payload, want 0", n)
	}
}

// FuzzControlStream feeds arbitrary frames to one Conn's DecodeMsg, as a
// reader would after its HELLO: into a control-message shape for odd kinds
// and discarded for even ones. It must not panic, the gob decoder must
// never hold more than MaxTypes definitions, and once DecodeMsg reports
// the cap every later frame fails too. The seeds are real streams: one
// type sent twice then another, a flood of new types, a type with an
// interface field, and a stream cut inside its first frame.
func FuzzControlStream(f *testing.F) {
	type delta struct {
		Rel    int
		Blocks []byte
	}
	type ctrl struct {
		ID     uint32
		Msg    string
		Cards  []int64
		Deltas []delta
	}
	type withAny struct{ V any }
	gob.Register(testMsg{})
	seed := ctrl{ID: 7, Msg: "x", Cards: []int64{1, 2}, Deltas: []delta{{1, []byte{3}}}}
	f.Add(controlStream(testMsg{2, "client"}, seed, seed, testMsg{}))
	f.Add(controlStream(newTypes(MaxTypes + 2)...))
	f.Add(controlStream(testMsg{}, withAny{testMsg{1, "y"}}))
	f.Add(controlStream(seed)[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(byteConn{r: bytes.NewReader(data)}, testCap)
		capped := false
		for {
			kind, payload, err := c.ReadFrame()
			if err != nil {
				return
			}
			var v any
			if kind&1 != 0 {
				v = new(ctrl)
			}
			err = c.DecodeMsg(payload, v)
			if n := decodedTypes(t, c); n > MaxTypes {
				t.Fatalf("decoder holds %d types, cap %d", n, MaxTypes)
			}
			if capped && err == nil {
				t.Fatal("a frame decoded after the cap was reported")
			}
			capped = capped || c.Types() > MaxTypes
		}
	})
}
