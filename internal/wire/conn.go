package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/relation"
)

// The frame kinds both protocols share; dist owns 0x02–0x06 and serve
// 0x20–0x28 (the table in the package documentation).
const (
	KindHello  byte = 0x01
	KindData   byte = 0x10
	KindEOS    byte = 0x11
	KindCredit byte = 0x12
)

// MaxTypes bounds the gob types a peer may define on one connection's
// control stream. A connection's decoder keeps every definition it has
// received for the rest of the connection, so without a bound a peer that
// defines a new type in every frame would grow it forever. Serve's server
// defines 6 types in all, its client 3 (its VAPPLY is raw) and dist's
// nodes fewer than 6; DecodeMsg fails, and keeps failing, once a peer has
// defined more than this.
const MaxTypes = 16

// Conn is one framed connection. Writes are frame-atomic (a mutex
// serializes concurrent senders — several streams multiplex one
// connection); reads are single-reader by construction (each connection
// has exactly one reading goroutine). The hot path, WriteBatch, encodes a
// columnar batch straight from its columns into a staging buffer with the
// relation block codec — no per-tuple encode step and no allocation in
// steady state. Control payloads are one gob stream per direction: enc
// appends each message to the staged frame, and dec reads each received
// payload through rd, so a type's descriptor crosses the connection once.
type Conn struct {
	nc       net.Conn
	br       *bufio.Reader
	maxFrame uint32

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf stage
	enc  *gob.Encoder // writes into wbuf; used under wmu
	rbuf []byte
	hdr  [4]byte // the frame length being read: a local would escape into io.ReadFull

	dec   *gob.Decoder // reads rd; used by the one reader
	rd    bytes.Reader
	types int // gob types the peer has defined so far

	// bytes, when set, accumulates every frame byte written.
	bytes *atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps nc in the framed codec. maxFrame is the largest frame
// length (kind byte + payload) the owning protocol ever sends; ReadFrame
// refuses anything longer before allocating for it.
func NewConn(nc net.Conn, maxFrame uint32) *Conn {
	c := &Conn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		bw:       bufio.NewWriterSize(nc, 64<<10),
		maxFrame: maxFrame,
	}
	c.enc = gob.NewEncoder(&c.wbuf)
	c.dec = gob.NewDecoder(&c.rd)
	return c
}

// stage is the frame being written. It is the control encoder's writer:
// each gob message is appended after the frame header.
type stage []byte

func (s *stage) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

// Dial opens a framed connection to addr.
func Dial(addr string, timeout time.Duration, maxFrame uint32) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(nc, maxFrame), nil
}

// CountBytes makes c add every frame byte it writes to n — a data plane's
// bytes-on-wire counter, shared by its connections. Set it before the
// first write.
func (c *Conn) CountBytes(n *atomic.Int64) { c.bytes = n }

// Close closes the underlying connection; it is idempotent and safe to
// call concurrently with blocked reads and writes (which then fail).
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// WriteFrame writes one frame (kind + payload) atomically and flushes.
func (c *Conn) WriteFrame(kind byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, uint32(1+len(payload)))
	c.wbuf = append(c.wbuf, kind)
	c.wbuf = append(c.wbuf, payload...)
	return c.send()
}

// send writes the staged frame in wbuf and flushes, accounting the bytes.
// Callers hold wmu.
func (c *Conn) send() error {
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	if c.bytes != nil {
		c.bytes.Add(int64(len(c.wbuf)))
	}
	return nil
}

// WriteMsg writes one control frame: v gob-encoded by the connection's
// encoder, preceded by the descriptors of any types it has not sent yet.
// A failed encode may leave the encoder believing the peer knows a type
// it never received, so it closes the connection.
func (c *Conn) WriteMsg(kind byte, v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = append(c.wbuf[:0], 0, 0, 0, 0, kind)
	if err := c.enc.Encode(v); err != nil {
		c.Close()
		return fmt.Errorf("wire: encode: %w", err)
	}
	binary.LittleEndian.PutUint32(c.wbuf, uint32(len(c.wbuf)-4))
	return c.send()
}

// WriteBatch writes one DATA frame: the stream id followed by the batch as
// one columnar block, encoded directly from the batch's columns.
func (c *Conn) WriteBatch(sid uint32, b *relation.Batch) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = c.wbuf[:0]
	c.wbuf = append(c.wbuf, 0, 0, 0, 0, KindData)
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, sid)
	c.wbuf = relation.AppendBatchBytes(c.wbuf, b)
	binary.LittleEndian.PutUint32(c.wbuf, uint32(len(c.wbuf)-4))
	return c.send()
}

// WriteStreamID writes one frame whose payload is a single stream id — the
// shape of EOS and of serve's CANCEL and VCLOSE.
func (c *Conn) WriteStreamID(kind byte, sid uint32) error {
	var p [4]byte
	binary.LittleEndian.PutUint32(p[:], sid)
	return c.WriteFrame(kind, p[:])
}

// WriteCredit grants the sender of stream sid n more batch credits.
func (c *Conn) WriteCredit(sid uint32, n uint32) error {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[:4], sid)
	binary.LittleEndian.PutUint32(p[4:], n)
	return c.WriteFrame(KindCredit, p[:])
}

// ReadFrame reads the next frame, returning its kind and payload. The
// payload slice is only valid until the next ReadFrame call (it views the
// connection's reusable read buffer). It fails on malformed framing, on a
// length above the connection's cap, on a closed connection, and on any
// transport error.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(c.hdr[:])
	if n < 1 || n > c.maxFrame {
		return 0, nil, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return 0, nil, err
	}
	return c.rbuf[0], c.rbuf[1:], nil
}

// UnexpectedFrameError is ReadMsg's error for a well-formed frame of
// another kind than the protocol allows at that point.
type UnexpectedFrameError struct{ Want, Got byte }

func (e *UnexpectedFrameError) Error() string {
	return fmt.Sprintf("wire: expected frame 0x%02x, got 0x%02x", e.Want, e.Got)
}

// ReadMsg reads the next frame, requires it to be of the given kind and
// gob-decodes its payload into v (a nil v discards the value; an empty
// payload, the empty control frames, decodes nothing). A positive timeout bounds the wait for the whole frame
// — the handshake deadline that keeps a peer which connects and never
// speaks from pinning its reader.
func (c *Conn) ReadMsg(kind byte, v any, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.nc.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		// Clearing can only fail on a closed connection, which the next
		// read reports.
		defer c.nc.SetReadDeadline(time.Time{})
	}
	got, payload, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if got != kind {
		return &UnexpectedFrameError{Want: kind, Got: got}
	}
	if len(payload) == 0 {
		return nil
	}
	return c.DecodeMsg(payload, v)
}

// DecodeMsg gob-decodes a control frame payload into v (nil discards the
// value). Payloads continue the peer's one gob stream, so every control
// payload must be decoded, in the order received. It fails once the peer
// has defined more than MaxTypes types on the connection, before the
// decoder sees the payload that passes the cap, and on every call after;
// and it refuses a payload that would make the decoder read an interface
// value (scanControl), the one place gob accepts definitions nested inside
// a value, where no count of messages could see them.
func (c *Conn) DecodeMsg(payload []byte, v any) error {
	defs, err := scanControl(payload)
	if c.types += defs; c.types > MaxTypes {
		return fmt.Errorf("wire: peer defined %d control types, limit is %d", c.types, MaxTypes)
	}
	if err != nil {
		return err
	}
	c.rd.Reset(payload)
	if err := c.decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// decode runs the gob decoder and reports a panic that escapes it as an
// error: told to discard a value (nil v), encoding/gob dereferences a nil
// engine on some malformed type definitions instead of failing.
func (c *Conn) decode(v any) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gob: %v", r)
		}
	}()
	return c.dec.Decode(v)
}

// Types returns how many gob types the peer has defined on the connection.
func (c *Conn) Types() int { return c.types }

// ParseData splits a DATA payload into its stream id and block bytes.
func ParseData(payload []byte) (uint32, []byte, error) {
	if len(payload) < 4 {
		return 0, nil, fmt.Errorf("wire: short data frame: %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), payload[4:], nil
}

// ParseStreamID reads the stream id of an EOS-shaped payload.
func ParseStreamID(payload []byte) (uint32, error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("wire: short stream-id payload: %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// ParseCredit splits a CREDIT payload into stream id and grant count.
func ParseCredit(payload []byte) (uint32, uint32, error) {
	if len(payload) < 8 {
		return 0, 0, fmt.Errorf("wire: short credit frame: %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), binary.LittleEndian.Uint32(payload[4:]), nil
}
