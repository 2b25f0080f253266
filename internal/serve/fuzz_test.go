package serve

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"multijoin/internal/atrest"
	"multijoin/internal/core"
	"multijoin/internal/relation"
	"multijoin/internal/wire"
	"multijoin/internal/wisconsin"
)

// The committed FuzzServeFrames seeds define their types with the ids gob
// gave those types in the process that wrote them, where helloMsg, encoded
// first, took the first user id. Encoding a HELLO before any test runs
// gives helloMsg that id in every run of this test binary too, whatever
// order the tests run in, so no seed redefines the id of the harness's own
// HELLO.
func init() {
	wire.NewConn(&captureConn{}, maxFrame).WriteMsg(wire.KindHello, helloMsg{})
}

// captureConn is a net.Conn that keeps what is written to it.
type captureConn struct {
	net.Conn
	buf []byte
}

func (cc *captureConn) Write(p []byte) (int, error) {
	cc.buf = append(cc.buf, p...)
	return len(p), nil
}

// fuzzServer starts a server on a 3x600 chain database for the frame
// scripts below; it is closed when tb ends. Every answer over all three
// relations takes more than one 256-tuple batch, so a window-1 stream
// stops on credit on any slot count.
func fuzzServer(tb testing.TB) (*Server, string) {
	tb.Helper()
	db, err := wisconsin.Chain(wisconsin.Config{Relations: 3, Cardinality: 600, Seed: 1995})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := core.Open(db)
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(eng, Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return srv, addr
}

// play sends a script of frames to srv on a fresh connection that has
// completed a valid HELLO, and returns the closing replies it drew (DONE,
// ERROR, VOK, VRESULT, in order of arrival) and whether the server hung up.
// A script is a run of (kind byte, payload length uint16 LE, payload)
// records; a record whose length overruns the input carries what is left.
//
// It fails t unless every SUBMIT, VCREATE, VAPPLY and VCLOSE is answered
// or the server hangs up instead (CREDIT and CANCEL have no reply of their
// own), and unless, once the client is gone, the connection is torn down
// with the engine's meter at zero, which a view left open would hold above
// it.
func play(t testing.TB, srv *Server, addr string, script []byte) (replies []byte, hungUp bool) {
	t.Helper()
	c, err := wire.Dial(addr, helloTimeout, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleClient}); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadMsg(wire.KindHello, nil, helloTimeout); err != nil {
		t.Fatal(err)
	}

	// The reader grants a credit per DATA frame, so that a stream is never
	// the reason a reply is late, and reports each closing reply; it ends,
	// closing got, when the server hangs up.
	got := make(chan byte, len(script))
	go func() {
		defer close(got)
		for {
			kind, payload, err := c.ReadFrame()
			if err != nil {
				return
			}
			switch kind {
			case wire.KindData:
				if sid, _, err := wire.ParseData(payload); err == nil {
					c.WriteCredit(sid, 1)
				}
			case fsDone, fsError, fsViewOK, fsViewResult:
				got <- kind
			}
		}
	}()

	owed := 0
	for len(script) >= 3 {
		kind, n := script[0], int(binary.LittleEndian.Uint16(script[1:]))
		payload := script[3:]
		payload = payload[:min(n, len(payload))]
		script = script[3+len(payload):]
		if c.WriteFrame(kind, payload) != nil {
			break // the server hung up on an earlier frame
		}
		switch kind {
		case fsSubmit, fsViewCreate, fsViewApply, fsViewClose:
			owed++
		}
	}
	deadline := time.After(30 * time.Second)
	for owed > 0 && !hungUp {
		select {
		case kind, ok := <-got:
			if hungUp = !ok; ok {
				replies = append(replies, kind)
				owed--
			}
		case <-deadline:
			t.Fatalf("%d requests neither answered nor hung up on", owed)
		}
	}

	c.Close()
	settled := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	}
	for limit := time.Now().Add(30 * time.Second); !settled(); time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatal("server connection still up 30s after the client closed")
		}
	}
	if live := srv.eng.MemoryLive(); live != 0 {
		t.Fatalf("engine meter live = %d bytes with no connection left, want 0", live)
	}
	return replies, hungUp
}

// FuzzServeFrames plays a script of arbitrary frames at a server connection
// that has completed a valid HELLO (play) — the gob control stream and the
// frame sequencing that FuzzReadFrame, which stops at the frame boundary,
// does not reach. The server must not panic, must answer every request or
// hang up, and must leave the engine's meter at zero once the client is
// gone. The seed corpus is seedScripts', checked by TestServeFrameSeeds.
func FuzzServeFrames(f *testing.F) {
	srv, addr := fuzzServer(f)
	f.Fuzz(func(t *testing.T, script []byte) { play(t, srv, addr, script) })
}

// scriptFrame is one frame of a seed script: msg gob-encoded on the
// script's control stream when set, raw sent as is otherwise; a positive
// cut keeps only the payload's first cut bytes.
type scriptFrame struct {
	kind byte
	msg  any
	raw  []byte
	cut  int
}

// streamScript encodes frames as a script in stream form: control
// messages are gob-encoded by one encoder that has already sent the
// harness's HELLO, so each type is defined in the first frame that uses it
// and never again, as a real client's would be.
func streamScript(frames ...scriptFrame) []byte {
	var cc captureConn
	c := wire.NewConn(&cc, maxFrame)
	c.WriteMsg(wire.KindHello, helloMsg{Version: protoVersion, Role: roleClient})
	var script []byte
	for _, f := range frames {
		payload := f.raw
		if f.msg != nil {
			cc.buf = cc.buf[:0]
			if err := c.WriteMsg(f.kind, f.msg); err != nil {
				panic(err)
			}
			payload = cc.buf[5:] // past the length and kind
		}
		if f.cut > 0 {
			payload = payload[:f.cut]
		}
		script = append(script, f.kind)
		script = binary.LittleEndian.AppendUint16(script, uint16(len(payload)))
		script = append(script, payload...)
	}
	return script
}

// sidPayload is the payload of a frame that carries stream ids and counts
// (CREDIT, CANCEL, VCLOSE).
func sidPayload(v ...uint32) []byte {
	var p []byte
	for _, x := range v {
		p = binary.LittleEndian.AppendUint32(p, x)
	}
	return p
}

// floodFrames is a SUBMIT per new struct type, one more than a connection
// may define after its HELLO: each type is compatible with submitMsg (an
// ID and a Relations of 1, refused with an ERROR) and adds a field no other
// has.
func floodFrames() []scriptFrame {
	frames := make([]scriptFrame, wire.MaxTypes)
	for i := range frames {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "ID", Type: reflect.TypeFor[uint32]()},
			{Name: "Relations", Type: reflect.TypeFor[int]()},
			{Name: fmt.Sprintf("Pad%02d", i), Type: reflect.TypeFor[int]()},
		})
		v := reflect.New(typ).Elem()
		v.Field(0).SetUint(uint64(i + 1))
		v.Field(1).SetInt(1)
		frames[i] = scriptFrame{kind: fsSubmit, msg: v.Interface()}
	}
	return frames
}

// seedScript is one FuzzServeFrames seed: its file name, its script, and
// the replies it must draw, sorted, then "hangup" when the server hangs up.
type seedScript struct {
	name   string
	script []byte
	want   string
}

// seedScripts is the FuzzServeFrames seed corpus.
func seedScripts() []seedScript {
	sub1 := submitMsg{ID: 1, Shape: "wide-bushy", Strategy: "FP", Runtime: "parallel", Window: 1}
	sub2 := submitMsg{ID: 2, Shape: "left-linear", Relations: 2, Strategy: "SP", Procs: 4}
	create := viewCreateMsg{ID: 3, Shape: "left-linear"}
	var ins, del relation.Batch
	ins.Append(1<<32, 7, 42)
	del.Append(-5, 0, 0)
	blocks := relation.AppendSignedBlocksBytes(nil, &ins, &del, 0)
	// applyClaims is a VAPPLY payload on view 3 that carries one delta but
	// claims n, and whose delta claims size bytes of blocks; apply is one
	// whose claims hold.
	applyClaims := func(n uint32, rel int32, size uint32, blocks []byte) []byte {
		return append(sidPayload(3, n, uint32(rel), size), blocks...)
	}
	apply := func(rel int32, blocks []byte) []byte { return applyClaims(1, rel, uint32(len(blocks)), blocks) }
	msg := func(kind byte, v any) scriptFrame { return scriptFrame{kind: kind, msg: v} }
	raw := func(kind byte, p []byte) scriptFrame { return scriptFrame{kind: kind, raw: p} }
	cut := func(kind byte, v any, n int) scriptFrame { return scriptFrame{kind: kind, msg: v, cut: n} }
	return []seedScript{
		{"credit-cancel-unknown", streamScript(raw(wire.KindCredit, sidPayload(9, 1<<31)), raw(fsCancel, sidPayload(9)), msg(fsSubmit, sub2)), "DONE"},
		{"length-overrun", []byte{fsSubmit, 0x86, 0x00, 0x01, 0x02}, "hangup"},
		{"submit", streamScript(msg(fsSubmit, sub1), msg(fsSubmit, sub2)), "DONE DONE"},
		// sub1's window of 1 cannot finish before the server has read the
		// CANCEL (or the second SUBMIT) sent ahead of any credit.
		{"submit-cancel", streamScript(msg(fsSubmit, sub1), raw(fsCancel, sidPayload(1))), "ERROR"},
		{"submit-duplicate", streamScript(msg(fsSubmit, sub1), msg(fsSubmit, sub1), msg(fsSubmit, sub2)), "DONE DONE ERROR"},
		{"submit-procs", streamScript(msg(fsSubmit, submitMsg{ID: 1, Shape: "wide-bushy", Strategy: "RD", Procs: 1 << 30})), "ERROR"},
		{"submit-truncated", streamScript(cut(fsSubmit, sub1, 89)), "hangup"},
		{"unknown-kind", streamScript(raw(0x7f, sidPayload(1)), msg(fsSubmit, sub1)), "hangup"},
		{"vapply-bad-blocks", streamScript(msg(fsViewCreate, create), raw(fsViewApply, apply(1, blocks[:len(blocks)-5]))), "ERROR VOK"},
		// A count no payload of this size can hold, and a block length past
		// the frame's end: parseApply refuses both before sizing anything.
		{"vapply-count-overrun", streamScript(msg(fsViewCreate, create), raw(fsViewApply, applyClaims(1<<31, 0, uint32(len(blocks)), blocks))), "VOK hangup"},
		{"vapply-length-overrun", streamScript(msg(fsViewCreate, create), raw(fsViewApply, applyClaims(1, 0, 1<<31, blocks))), "VOK hangup"},
		{"vapply-no-view", streamScript(raw(fsViewApply, apply(0, blocks))), "ERROR"},
		{"vapply-rel-neg", streamScript(msg(fsViewCreate, create), raw(fsViewApply, apply(-1, blocks)), raw(fsViewClose, sidPayload(3))), "DONE ERROR VOK"},
		{"vapply-truncated", streamScript(msg(fsViewCreate, create), raw(fsViewApply, apply(0, blocks)[:len(apply(0, blocks))-1])), "VOK hangup"},
		{"vclose-truncated", streamScript(msg(fsViewCreate, create), raw(fsViewClose, sidPayload(3)[:2])), "VOK hangup"},
		{"vcreate-procs", streamScript(msg(fsViewCreate, viewCreateMsg{ID: 3, Procs: 1 << 30})), "ERROR"},
		{"vcreate-truncated", streamScript(cut(fsViewCreate, create, 58)), "hangup"},
		{"view", streamScript(msg(fsViewCreate, create), raw(fsViewApply, apply(0, blocks)), raw(fsViewClose, sidPayload(3))), "DONE VOK VRESULT"},
		{"view-duplicate", streamScript(msg(fsViewCreate, create), msg(fsViewCreate, create), raw(fsViewClose, sidPayload(3)), raw(fsViewClose, sidPayload(3))), "DONE ERROR ERROR VOK"},
		{"view-left-open", streamScript(msg(fsViewCreate, create), raw(fsViewApply, apply(0, blocks))), "VOK VRESULT"},
		{"view-then-submit-same-id", streamScript(msg(fsViewCreate, create), msg(fsSubmit, submitMsg{ID: 3, Shape: "left-linear", Strategy: "FP", Runtime: "parallel"}), raw(fsViewClose, sidPayload(3))), "DONE ERROR VOK"},
		{"type-flood", streamScript(floodFrames()...), strings.Repeat("ERROR ", wire.MaxTypes-1) + "hangup"},
	}
}

// replyNames renders play's outcome the way seedScripts states it.
func replyNames(replies []byte, hungUp bool) string {
	names := map[byte]string{fsDone: "DONE", fsError: "ERROR", fsViewOK: "VOK", fsViewResult: "VRESULT"}
	var out []string
	for _, k := range replies {
		out = append(out, names[k])
	}
	slices.Sort(out)
	if hungUp {
		out = append(out, "hangup")
	}
	return strings.Join(out, " ")
}

// TestServeFrameSeeds plays every committed FuzzServeFrames seed and
// checks that it still draws the replies its name promises. The seeds
// continue the harness's control stream, so a seed that redefined a type
// would now stop at its first frame and the fuzzer would lose the depth it
// was written for. A seed file that is missing is first written from
// seedScripts: deleting the corpus and running this test regenerates it.
func TestServeFrameSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzServeFrames")
	seeds := seedScripts()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !slices.ContainsFunc(seeds, func(s seedScript) bool { return s.name == f.Name() }) {
			t.Errorf("seed %s is not in seedScripts", f.Name())
		}
	}
	srv, addr := fuzzServer(t)
	for _, s := range seeds {
		path := filepath.Join(dir, s.name)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			data = fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", s.script)
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimPrefix(strings.TrimSpace(string(data)), "go test fuzz v1\n[]byte(")
		script, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", s.name, err)
		}
		if got := replyNames(play(t, srv, addr, []byte(script))); got != s.want {
			t.Errorf("seed %s drew %q, want %q", s.name, got, s.want)
		}
	}
}

// TestServeTypeFlood sends a new struct type in every frame. Each frame
// still parses as a SUBMIT and is answered, until the connection's decoder
// would hold more than wire.MaxTypes definitions; then the server hangs up,
// leaving no connection, nothing on the meter (play checks both) and no
// goroutine behind.
func TestServeTypeFlood(t *testing.T) {
	srv, addr := fuzzServer(t)
	base := runtime.NumGoroutine()
	got := replyNames(play(t, srv, addr, streamScript(floodFrames()...)))
	if want := strings.Repeat("ERROR ", wire.MaxTypes-1) + "hangup"; got != want {
		t.Fatalf("type flood drew %q, want %q", got, want)
	}
	if err := atrest.Goroutines(base, 10*time.Second); err != nil {
		t.Fatalf("after the flood: %v", err)
	}
}
