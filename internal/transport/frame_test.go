package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
)

// countingConn counts the Write calls that reach the socket; on a
// *net.TCPConn each is one write(2). (The vectored write of a payload
// larger than the buffer goes through the embedded conn's own writev
// and is not counted.)
type countingConn struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (client, server *countingConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return &countingConn{TCPConn: c.(*net.TCPConn)}, &countingConn{TCPConn: s.(*net.TCPConn)}
}

// oneConnListener hands a prepared connection to a Server.
type oneConnListener struct {
	conn chan Conn
	done chan struct{}
}

func listenOne(c Conn) *oneConnListener {
	l := &oneConnListener{conn: make(chan Conn, 1), done: make(chan struct{})}
	l.conn <- c
	return l
}

func (l *oneConnListener) Accept() (Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}
func (l *oneConnListener) Close() error { close(l.done); return nil }
func (l *oneConnListener) Addr() string { return "one" }

func inlineEcho(p []byte) ([]byte, func() []byte) { return p, nil }

// TestSerialCallIsOneWritePerDirection pins the syscall budget of the
// hot path: a lone request is one write on the client, its response one
// write on the server — header and payload together, on the pooled
// path and on the inline path alike.
func TestSerialCallIsOneWritePerDirection(t *testing.T) {
	for name, start := range map[string]func(Listener) *Server{
		"pooled": func(l Listener) *Server { return Serve(l, func(p []byte) []byte { return p }) },
		"inline": func(l Listener) *Server { return ServeInline(l, inlineEcho) },
	} {
		t.Run(name, func(t *testing.T) {
			craw, sraw := tcpPair(t)
			srv := start(listenOne(newTCPConn(sraw, 0)))
			defer srv.Close()
			cli := NewClient(newTCPConn(craw, 0))
			defer cli.Close()
			const calls = 100
			for i := 0; i < calls; i++ {
				if _, err := cli.Call([]byte("0123456789abcdef")); err != nil {
					t.Fatal(err)
				}
			}
			if got := craw.writes.Load(); got != calls {
				t.Errorf("client issued %d writes for %d requests", got, calls)
			}
			if got := sraw.writes.Load(); got != calls {
				t.Errorf("server issued %d writes for %d responses", got, calls)
			}
		})
	}
}

// TestQueuedFramesShareOneWrite: frames queued behind each other leave
// in one write, in order, byte-identical to frames sent one at a time.
func TestQueuedFramesShareOneWrite(t *testing.T) {
	craw, sraw := tcpPair(t)
	a, b := newTCPConn(craw, 0), newTCPConn(sraw, 0)
	defer a.Close()
	defer b.Close()
	const frames = 50
	for i := 0; i < frames; i++ {
		if err := a.Queue(Frame{Corr: uint64(i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := craw.writes.Load(); got != 0 {
		t.Fatalf("%d writes before the flush", got)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := craw.writes.Load(); got != 1 {
		t.Fatalf("%d writes for one flush of %d frames", got, frames)
	}
	for i := 0; i < frames; i++ {
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr != uint64(i) || len(f.Payload) != 1 || f.Payload[0] != byte(i) {
			t.Fatalf("frame %d arrived as corr %d payload %v", i, f.Corr, f.Payload)
		}
		if want := i < frames-1; b.Ready() != want {
			t.Fatalf("after frame %d Ready() = %v", i, !want)
		}
	}
}

// TestClientQueueThenFlushIsOneWrite: a burst of requests queued on a
// Client costs the client one write, at the flush, and every request is
// answered — the budget CountAll's send loop relies on.
func TestClientQueueThenFlushIsOneWrite(t *testing.T) {
	craw, sraw := tcpPair(t)
	srv := ServeInline(listenOne(newTCPConn(sraw, 0)), inlineEcho)
	defer srv.Close()
	cli := NewClient(newTCPConn(craw, 0))
	defer cli.Close()
	const burst = 256
	var pending [burst]<-chan []byte
	for i := range pending {
		ch, err := cli.Queue([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = ch
	}
	if got := craw.writes.Load(); got != 0 {
		t.Fatalf("%d writes before the flush", got)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range pending {
		if resp, ok := <-ch; !ok || len(resp) != 1 || resp[0] != byte(i) {
			t.Fatalf("request %d answered %v (open=%v)", i, resp, ok)
		}
	}
	if got := craw.writes.Load(); got != 1 {
		t.Fatalf("%d writes for one flushed burst of %d requests", got, burst)
	}
}

// TestTCPRecvMemoryFollowsBytesReceived: a header advertising a large
// payload commits one buffer, not the advertised length; the rest is
// allocated as the bytes arrive.
func TestTCPRecvMemoryFollowsBytesReceived(t *testing.T) {
	a, b := net.Pipe()
	conn := newTCPConn(b, 0)
	const advertised, delivered = 48 << 20, 100 << 10
	go func() {
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:], advertised)
		a.Write(hdr[:])
		a.Write(make([]byte, delivered))
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := conn.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("Recv allocated %d bytes for %d received (header advertised %d)", grew, delivered, advertised)
	}
}

// appendFrame is the reference encoder: the wire format, by hand.
func appendFrame(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = binary.BigEndian.AppendUint64(dst, f.Corr)
	return append(dst, f.Payload...)
}

// parseFrames is the reference decoder: the whole frames at the front
// of stream, stopping at the first oversized or incomplete one.
func parseFrames(stream []byte) []Frame {
	var out []Frame
	for len(stream) >= frameHeader {
		n := binary.BigEndian.Uint32(stream)
		if n > maxFrame || uint64(len(stream)-frameHeader) < uint64(n) {
			break
		}
		out = append(out, Frame{Corr: binary.BigEndian.Uint64(stream[4:]), Payload: stream[frameHeader : frameHeader+int(n)]})
		stream = stream[frameHeader+int(n):]
	}
	return out
}

// drip writes stream to w in segments of seg bytes and closes it.
func drip(w io.WriteCloser, stream []byte, seg int) {
	defer w.Close()
	for len(stream) > 0 {
		n := min(seg, len(stream))
		if _, err := w.Write(stream[:n]); err != nil {
			return
		}
		stream = stream[n:]
	}
}

// recvAll reads frames from a tcpConn over stream dripped in seg-byte
// segments, until the stream ends or turns invalid.
func recvAll(stream []byte, seg int) []Frame {
	a, b := net.Pipe()
	conn := newTCPConn(b, 0)
	defer conn.Close()
	go drip(a, stream, seg)
	var got []Frame
	for {
		f, err := conn.Recv()
		if err != nil {
			return got
		}
		got = append(got, f)
	}
}

func sameFrames(t *testing.T, what string, got, want []Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Corr != want[i].Corr || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: frame %d differs (corr %d/%d, %d/%d payload bytes)", what, i,
				got[i].Corr, want[i].Corr, len(got[i].Payload), len(want[i].Payload))
		}
	}
}

// framesFrom turns fuzz bytes into a short sequence of valid frames,
// three bytes each: a size class and a 16-bit parameter. The classes
// are the shapes the reader treats differently.
func framesFrom(spec []byte) []Frame {
	var frames []Frame
	for i := 0; i+3 <= len(spec) && len(frames) < 6; i += 3 {
		param := int(binary.BigEndian.Uint16(spec[i+1:]))
		var size int
		switch spec[i] % 4 {
		case 0: // empty payload
		case 1: // small: many per read buffer
			size = param % 512
		case 2: // ends within a few bytes of the read buffer's edge
			size = connBuf - 2*frameHeader + param%(2*frameHeader)
		case 3: // larger than the buffer: read through, in growing steps
			size = connBuf + param
		}
		payload := make([]byte, size)
		for j := range payload {
			payload[j] = byte(len(frames)*31 + j)
		}
		frames = append(frames, Frame{Corr: uint64(param)<<8 | uint64(len(frames)), Payload: payload})
	}
	return frames
}

// FuzzFrameStream feeds the TCP frame reader socket bytes it did not
// choose. Arbitrary bytes in arbitrary segments yield exactly the
// frames the reference decoder finds in them, then an error — no panic,
// and no allocation beyond what was received plus a buffer. Valid frame
// sequences written by tcpConn are byte-identical to the reference
// encoding and read back intact however the stream is cut.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 9, 'a', 'b', 'c'}, uint16(0))      // one frame, 1-byte drip
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(11))        // over the limit
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}, uint16(4))       // 64 MB advertised, 1 byte sent
	f.Add([]byte{1, 0, 7, 1, 0, 9, 2, 0, 3, 1, 1, 0, 0, 0, 0, 2, 0, 20}, uint16(0))  // small, straddling, empty
	f.Add([]byte{3, 0x40, 0, 1, 0, 5, 3, 0, 1, 0, 0, 0}, uint16(4095))               // payload > buffer
	f.Add([]byte{2, 0, 11, 2, 0, 12, 2, 0, 13, 2, 0, 0, 1, 0, 1}, uint16(connBuf-1)) // frames across the buffer edge
	f.Fuzz(func(t *testing.T, data []byte, seg uint16) {
		// Arbitrary bytes. The segment floor bounds one iteration at a
		// few thousand pipe hand-offs.
		cut := func(stream []byte) int { return max(int(seg)+1, len(stream)/4096+1) }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := recvAll(data, cut(data))
		runtime.ReadMemStats(&after)
		sameFrames(t, "arbitrary bytes", got, parseFrames(data))
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(data)+(2<<20)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}

		// Valid frames, written by one tcpConn (a mix of Queue and Send)
		// and read by another.
		frames := framesFrom(data)
		var want []byte
		for _, fr := range frames {
			want = appendFrame(want, fr)
		}
		a, b := net.Pipe()
		w := newTCPConn(a, 0)
		go func() {
			defer w.Close()
			for i, fr := range frames {
				send := w.Send
				if i%2 == 0 {
					send = w.Queue
				}
				if send(fr) != nil {
					return
				}
			}
			w.Flush()
		}()
		wrote, err := io.ReadAll(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wrote, want) {
			t.Fatalf("%d frames went out as %d bytes, reference encoding has %d", len(frames), len(wrote), len(want))
		}
		sameFrames(t, "round trip", recvAll(wrote, cut(wrote)), frames)
	})
}
