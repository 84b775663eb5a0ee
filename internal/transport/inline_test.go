package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// splitHandler is the shape cluster.Node gives ServeInline: requests
// starting with 's' spill to the pool and run slow there, everything
// else is echoed inline.
func splitHandler(slow func(p []byte) []byte) InlineHandler {
	return func(p []byte) ([]byte, func() []byte) {
		if len(p) > 0 && p[0] == 's' {
			return nil, func() []byte { return slow(p) }
		}
		return p, nil
	}
}

func serveTCP(t *testing.T, start func(Listener) *Server) (*Server, *Client) {
	t.Helper()
	l, err := ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := start(l)
	conn, err := DialTCP(l.Addr(), 0)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, NewClient(conn)
}

// TestPoolOverflowKeepsConnectionLive: more blocked handlers than the
// pool has workers and queue slots, all waiting on a request that
// arrives after them. The overflow goroutines keep the reader reading.
func TestPoolOverflowKeepsConnectionLive(t *testing.T) {
	release := make(chan struct{})
	srv, cli := serveTCP(t, func(l Listener) *Server {
		return Serve(l, func(p []byte) []byte {
			if string(p) == "release" {
				close(release)
			} else {
				<-release
			}
			return p
		})
	})
	defer srv.Close()
	defer cli.Close()
	const blocked = serveWorkers + serveQueue + 40
	var chans []<-chan []byte
	for i := 0; i < blocked; i++ {
		ch, err := cli.Go([]byte("wait"))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if _, err := cli.Call([]byte("release")); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		if _, ok := <-ch; !ok {
			t.Fatal("blocked call failed")
		}
	}
}

// TestInlineRequestsOvertakeSpilledOne: one slow pooled request and a
// thousand inline ones share a connection; every inline one completes
// while the slow one is still running.
func TestInlineRequestsOvertakeSpilledOne(t *testing.T) {
	for _, tcp := range []bool{true, false} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			release := make(chan struct{})
			start := func(l Listener) *Server {
				return ServeInline(l, splitHandler(func(p []byte) []byte { <-release; return p }))
			}
			var srv *Server
			var cli *Client
			if tcp {
				srv, cli = serveTCP(t, start)
			} else {
				n := NewNetwork()
				l, _ := n.Listen("srv")
				srv = start(l)
				conn, _ := n.Dial("srv")
				cli = NewClient(conn)
			}
			defer srv.Close()
			defer cli.Close()

			slow, err := cli.Go([]byte("scan"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 1000; i++ {
				req := []byte(fmt.Sprintf("get-%d", i))
				resp, err := cli.Call(req)
				if err != nil || !bytes.Equal(resp, req) {
					t.Fatalf("get %d behind a slow scan: %q, %v", i, resp, err)
				}
			}
			select {
			case <-slow:
				t.Fatal("the slow request finished before it was released")
			default:
			}
			close(release)
			if resp, ok := <-slow; !ok || string(resp) != "scan" {
				t.Fatalf("slow request: %q, %v", resp, ok)
			}
		})
	}
}

// TestSpilledHandlersCallEachOther is the dual-write forward shape: two
// servers, a connection from each to the other, and pooled handlers
// that forward over it and wait — while inline reads run on the client
// connections and on the forwarding pair itself. A forward that ran on
// a reader goroutine would stop that connection's reads, the answer to
// the other side's forward among them.
func TestSpilledHandlersCallEachOther(t *testing.T) {
	var srvs [2]*Server
	var clis, peers [2]*Client // peers[i]: server i's own connection to server 1-i
	var ready sync.WaitGroup   // orders the handlers' reads of peers after its writes
	ready.Add(1)
	var addrs [2]string
	for i := range srvs {
		l, err := ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr()
		srvs[i] = ServeInline(l, splitHandler(func(p []byte) []byte {
			if string(p) == "s-forwarded" {
				return p
			}
			ready.Wait()
			resp, err := peers[i].Call([]byte("s-forwarded"))
			if err != nil {
				return []byte(err.Error())
			}
			return resp
		}))
		defer srvs[i].Close()
	}
	dial := func(addr string) *Client {
		conn, err := DialTCP(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		t.Cleanup(func() { c.Close() })
		return c
	}
	for i := range srvs {
		clis[i], peers[i] = dial(addrs[i]), dial(addrs[1-i])
	}
	ready.Done()

	loop := func(c *Client, n int, req, want string) error {
		for k := 0; k < n; k++ {
			if resp, err := c.Call([]byte(req)); err != nil || string(resp) != want {
				return fmt.Errorf("%s %d: %q, %v", req, k, resp, err)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := range srvs {
		for _, run := range []func() error{
			func() error { return loop(clis[i], 300, "s-write", "s-forwarded") },
			func() error { return loop(clis[i], 3000, "get", "get") },
			func() error { return loop(peers[i], 3000, "probe", "probe") },
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- run()
			}()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("servers forwarding to each other deadlocked")
	}
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestResponseFlushedBeforeBlockingRead: a frame and a half arrive,
// then nothing. The response to the whole frame must not wait in the
// write buffer for the other half.
func TestResponseFlushedBeforeBlockingRead(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeInline(l, inlineEcho)
	defer srv.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	one := appendFrame(nil, Frame{Corr: 7, Payload: []byte("first")})
	two := appendFrame(nil, Frame{Corr: 8, Payload: []byte("second")})
	if _, err := raw.Write(append(one[:len(one):len(one)], two[:len(two)/2]...)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, len(one))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatalf("first response did not arrive while the second request was half sent: %v", err)
	}
	if !bytes.Equal(got, one) {
		t.Fatalf("first response %x, want %x", got, one)
	}
	if _, err := raw.Write(two[len(two)/2:]); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(two))
	if _, err := io.ReadFull(raw, got); err != nil || !bytes.Equal(got, two) {
		t.Fatalf("second response %x, %v", got, err)
	}
}

// TestLargePayloadsPipelined: payloads larger than the write buffer,
// 256 in flight, through the echo handler that returns its input.
func TestLargePayloadsPipelined(t *testing.T) {
	srv, cli := serveTCP(t, func(l Listener) *Server {
		return Serve(l, func(p []byte) []byte { return p })
	})
	defer srv.Close()
	defer cli.Close()
	const inflight = 256
	payload := func(i int) []byte {
		p := make([]byte, connBuf+1000+i)
		binary.BigEndian.PutUint32(p, uint32(i))
		for j := 4; j < len(p); j++ {
			p[j] = byte(i + j)
		}
		return p
	}
	// Responses start coming back while requests are still going out:
	// collect them concurrently, or both directions fill their socket
	// buffers and stall.
	chans := make(chan (<-chan []byte), inflight)
	failed := make(chan error, 1)
	go func() {
		defer close(failed)
		i := 0
		for ch := range chans {
			resp, ok := <-ch
			if !ok || !bytes.Equal(resp, payload(i)) {
				failed <- fmt.Errorf("response %d: ok=%v, %d bytes, tagged %d", i, ok, len(resp), binary.BigEndian.Uint32(resp))
				return
			}
			i++
		}
	}()
	for i := 0; i < inflight; i++ {
		ch, err := cli.Go(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		chans <- ch
	}
	close(chans)
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestServerReleasesDisconnectedClients: a client that hangs up costs
// the server nothing afterwards — no tracked connection, no descriptor.
func TestServerReleasesDisconnectedClients(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	defer srv.Close()
	tracked := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	baseline := -1
	if runtime.GOOS == "linux" {
		baseline = openFDs(t)
	}
	for i := 0; i < 200; i++ {
		conn, err := DialTCP(l.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(conn)
		if _, err := cli.Call([]byte("x")); err != nil {
			t.Fatal(err)
		}
		cli.Close()
	}
	// The server notices each hang-up on its own reader goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for tracked() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still tracked after their clients closed", tracked())
		}
		time.Sleep(time.Millisecond)
	}
	if baseline >= 0 {
		if now := openFDs(t); now > baseline {
			t.Fatalf("%d descriptors open, %d before the clients came and went", now, baseline)
		}
	}
}
