package proto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/content"
	"repro/internal/core"
)

func TestSendRecvRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	hello := Hello{WorkerID: "w1", Resources: core.Resources{Cores: 32, MemoryMB: 1024}, Cluster: "a", DataAddr: "127.0.0.1:9"}
	if err := c.Send(MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello {
		t.Fatalf("type = %v", typ)
	}
	got, err := Decode[Hello](raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != hello {
		t.Errorf("round trip: %+v != %+v", got, hello)
	}
}

func TestMultipleFramesInOrder(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	for i := 0; i < 10; i++ {
		if err := c.Send(MsgFileAck, FileAck{ID: string(rune('a' + i)), Ok: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgFileAck {
			t.Fatalf("frame %d: %v %v", i, typ, err)
		}
		ack, err := Decode[FileAck](raw)
		if err != nil {
			t.Fatal(err)
		}
		if ack.ID != string(rune('a'+i)) {
			t.Errorf("frame %d out of order: %q", i, ack.ID)
		}
	}
}

func TestBinaryPayloadSurvivesJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	put := PutFile{File: FileMeta{ID: "x", Name: "bin", Data: data, LogicalSize: 256}, Cache: true}
	if err := c.Send(MsgPutFile, put); err != nil {
		t.Fatal(err)
	}
	_, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode[PutFile](raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.File.Data, data) {
		t.Errorf("binary payload corrupted")
	}
}

func TestCorruptFrames(t *testing.T) {
	// Bad length prefix.
	c := NewConn(bytes.NewBuffer([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1}))
	if _, _, err := c.Recv(); err == nil || !strings.Contains(err.Error(), "frame length") {
		t.Errorf("huge length accepted: %v", err)
	}
	// Truncated body.
	c2 := NewConn(bytes.NewBuffer([]byte{0, 0, 0, 10, byte(MsgHello), 1, 2}))
	if _, _, err := c2.Recv(); err == nil {
		t.Errorf("truncated frame accepted")
	}
	// Empty stream: clean EOF.
	c3 := NewConn(&bytes.Buffer{})
	if _, _, err := c3.Recv(); err == nil {
		t.Errorf("EOF not reported")
	}
}

func TestConcurrentSendersOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan map[string]int, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := NewConn(nc)
		counts := map[string]int{}
		for i := 0; i < 200; i++ {
			_, raw, err := c.Recv()
			if err != nil {
				break
			}
			ack, err := Decode[FileAck](raw)
			if err != nil {
				break
			}
			counts[ack.ID]++
		}
		done <- counts
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := NewConn(nc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('A' + g))
			for i := 0; i < 50; i++ {
				if err := c.Send(MsgFileAck, FileAck{ID: id, Ok: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	counts := <-done
	// Frames must not interleave mid-frame: every message decodes and
	// per-sender counts are exact.
	for g := 0; g < 4; g++ {
		id := string(rune('A' + g))
		if counts[id] != 50 {
			t.Errorf("sender %s delivered %d of 50 frames", id, counts[id])
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, mt := range []MsgType{MsgHello, MsgPutFile, MsgFetchFile, MsgFileAck,
		MsgRunTask, MsgInstallLibrary, MsgLibraryAck, MsgRemoveLibrary,
		MsgInvoke, MsgResult, MsgShutdown, MsgGetFile, MsgFileData, MsgError} {
		if s := mt.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("missing name for %d", mt)
		}
	}
	if s := MsgType(200).String(); !strings.HasPrefix(s, "MsgType(") {
		t.Errorf("unknown type should fall back: %q", s)
	}
}

// Property: any FileAck survives a frame round trip.
func TestQuickFileAckRoundTrip(t *testing.T) {
	f := func(id string, ok bool, errMsg string) bool {
		var buf bytes.Buffer
		c := NewConn(&buf)
		in := FileAck{ID: id, Ok: ok, Err: errMsg}
		if err := c.Send(MsgFileAck, in); err != nil {
			return false
		}
		typ, raw, err := c.Recv()
		if err != nil || typ != MsgFileAck {
			return false
		}
		out, err := Decode[FileAck](raw)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Recv never panics on arbitrary byte streams — it parses or
// errors.
func TestQuickRecvNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		c := NewConn(bytes.NewBuffer(data))
		for i := 0; i < 4; i++ {
			if _, _, err := c.Recv(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWithIdleTimeoutCutsStalledRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := WithIdleTimeout(a, 60*time.Millisecond)
	start := time.Now()
	_, err := rc.Read(make([]byte, 1))
	if err == nil {
		t.Fatal("read on a silent peer should time out")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("timed out after %v, want ~60ms", d)
	}
}

func TestWithIdleTimeoutRefreshesOnProgress(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	rc := WithIdleTimeout(a, 120*time.Millisecond)
	// A slow but steady writer: each chunk arrives well inside the idle
	// window, yet the whole transfer takes several windows.
	const chunks = 6
	go func() {
		for i := 0; i < chunks; i++ {
			time.Sleep(40 * time.Millisecond)
			b.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, chunks)
	for got := 0; got < chunks; {
		n, err := rc.Read(buf[got:])
		if err != nil {
			t.Fatalf("steady transfer cut by idle timeout after %d bytes: %v", got, err)
		}
		got += n
	}
}

func TestWithIdleTimeoutZeroIsPassthrough(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	if c := WithIdleTimeout(a, 0); c != a {
		t.Errorf("zero idle timeout should return the conn unchanged")
	}
}

func TestBulkFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	payload := make([]byte, 1<<16)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	hdr := PutFileHdr{File: FileHdr{ID: "obj", Name: "env.tar.gz", Kind: 1, LogicalSize: 1 << 16}, Cache: true, Unpack: true}
	if err := c.SendBulk(MsgPutFileBulk, hdr, payload); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgPutFileBulk {
		t.Fatalf("type = %v", typ)
	}
	got, data, err := DecodeBulk[PutFileHdr](raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr {
		t.Errorf("header round trip: %+v != %+v", got, hdr)
	}
	if !bytes.Equal(data, payload) {
		t.Errorf("payload corrupted (%d bytes)", len(data))
	}
}

func TestBulkFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.SendBulk(MsgFileDataBulk, FileHdr{ID: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	_, raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	hdr, data, err := DecodeBulk[FileHdr](raw)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ID != "x" || len(data) != 0 {
		t.Errorf("hdr=%+v payload=%d bytes", hdr, len(data))
	}
}

func TestBulkAndJSONFramesInterleave(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Send(MsgFileAck, FileAck{ID: "a", Ok: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBulk(MsgPutFileBulk, PutFileHdr{File: FileHdr{ID: "b"}}, []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(MsgFileAck, FileAck{ID: "c"}); err != nil {
		t.Fatal(err)
	}
	if typ, raw, err := c.Recv(); err != nil || typ != MsgFileAck {
		t.Fatalf("frame 1: %v %v", typ, err)
	} else if ack, _ := Decode[FileAck](raw); ack.ID != "a" {
		t.Errorf("frame 1 = %+v", ack)
	}
	typ, raw, err := c.Recv()
	if err != nil || typ != MsgPutFileBulk {
		t.Fatalf("frame 2: %v %v", typ, err)
	}
	hdr, data, err := DecodeBulk[PutFileHdr](raw)
	if err != nil || hdr.File.ID != "b" || string(data) != "bytes" {
		t.Fatalf("frame 2 = %+v %q %v", hdr, data, err)
	}
	if typ, _, err := c.Recv(); err != nil || typ != MsgFileAck {
		t.Fatalf("frame 3: %v %v", typ, err)
	}
}

func TestSplitBulkRejectsCorruptHeaders(t *testing.T) {
	if _, _, err := SplitBulk([]byte{1, 2}); err == nil {
		t.Errorf("short frame accepted")
	}
	// Header length pointing past the end of the frame.
	bad := []byte{0, 0, 0, 200, 'x', 'y'}
	if _, _, err := SplitBulk(bad); err == nil {
		t.Errorf("oversized header length accepted")
	}
}

// BenchmarkPutFileEncodeJSON64MB is the legacy control-plane path for
// bulk bytes: the object rides inside the JSON message, paying a
// base64 expansion plus encoder staging on every send.
func BenchmarkPutFileEncodeJSON64MB(b *testing.B) {
	payload := make([]byte, 64<<20)
	c := NewConn(struct{ io.ReadWriter }{discardRW{}})
	msg := PutFile{File: FileMeta{ID: "obj", Name: "env.tar.gz", Data: payload, LogicalSize: int64(len(payload))}, Cache: true}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(MsgPutFile, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutFileEncodeBulk64MB is the binary bulk path: a small JSON
// header, then the payload written straight from its backing slice.
// B/op must stay near zero no matter the payload size — this is the
// "no base64 copy" acceptance check.
func BenchmarkPutFileEncodeBulk64MB(b *testing.B) {
	payload := make([]byte, 64<<20)
	c := NewConn(struct{ io.ReadWriter }{discardRW{}})
	hdr := PutFileHdr{File: FileHdr{ID: "obj", Name: "env.tar.gz", LogicalSize: int64(len(payload))}, Cache: true}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SendBulk(MsgPutFileBulk, hdr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

type discardRW struct{}

func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardRW) Write(p []byte) (int, error) { return len(p), nil }

// TestSpecFramesCarryNoObjectBytes pins the wire rule: a library
// install or task frame names its objects by ID and metadata only,
// however large they are. The bytes move through bulk frames and peer
// fetches, where the worker resolves them by ID.
func TestSpecFramesCarryNoObjectBytes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (4<<20)/16)
	input := core.FileSpec{Object: content.NewDataset("weights.bin", big, 64<<20), Cache: true, PeerTransfer: true}
	env := core.FileSpec{Object: content.NewTarball("env.tar.gz", []byte("manifest"), 512<<20, 2<<30), Cache: true, PeerTransfer: true, Unpack: true}
	ref := core.FileSpec{Object: content.NewBlob("prev.out", []byte("result")), Cache: true, PeerTransfer: true, ByRef: true}
	lib := core.LibrarySpec{Name: "lib", Env: &env, Inputs: []core.FileSpec{input}, Slots: 4}
	task := core.TaskSpec{ID: 9, Script: "pass\n", Inputs: []core.FileSpec{env, input, ref}}

	check := func(t *testing.T, got, want []core.FileSpec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("decoded %d files, want %d", len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Object == nil {
				t.Fatalf("file %d: object lost", i)
			}
			o, wo := *g.Object, *w.Object
			if len(o.Data) != 0 {
				t.Errorf("file %d: %d object bytes crossed the control frame", i, len(o.Data))
			}
			o.Data, wo.Data = nil, nil
			if o.ID != wo.ID || o.Name != wo.Name || o.Kind != wo.Kind ||
				o.LogicalSize != wo.LogicalSize || o.UnpackedSize != wo.UnpackedSize {
				t.Errorf("file %d metadata: got %+v, want %+v", i, o, wo)
			}
			if g.Cache != w.Cache || g.PeerTransfer != w.PeerTransfer || g.Unpack != w.Unpack || g.ByRef != w.ByRef {
				t.Errorf("file %d flags: got %+v, want %+v", i, g, w)
			}
		}
	}
	roundTrip := func(t *testing.T, typ MsgType, v any) []byte {
		t.Helper()
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.Send(typ, v); err != nil {
			t.Fatal(err)
		}
		if n := buf.Len(); n >= 4<<10 {
			t.Errorf("%v frame is %d bytes, want < 4 KB", typ, n)
		}
		_, raw, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	t.Run("install", func(t *testing.T) {
		got, err := Decode[core.LibrarySpec](roundTrip(t, MsgInstallLibrary, lib))
		if err != nil {
			t.Fatal(err)
		}
		if got.Env == nil {
			t.Fatal("environment binding lost")
		}
		check(t, got.Files(), lib.Files())
	})
	t.Run("task", func(t *testing.T) {
		got, err := Decode[core.TaskSpec](roundTrip(t, MsgRunTask, task))
		if err != nil {
			t.Fatal(err)
		}
		check(t, got.Inputs, task.Inputs)
	})
}
