package transport

import (
	"testing"
	"time"
)

// echoServe starts an echo server at addr on the fabric.
func echoServe(t *testing.T, net *Network, addr string) *Server {
	t.Helper()
	l, err := net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	return Serve(l, func(p []byte) []byte { return append([]byte("ok:"), p...) })
}

func fabricPool(fabric *Network) *Pool {
	return NewPool(func(addr string) (*Client, error) {
		c, err := fabric.Dial(addr)
		if err != nil {
			return nil, err
		}
		return NewClient(c), nil
	})
}

func TestPoolRedialsAfterPeerBounce(t *testing.T) {
	fabric := NewNetwork()
	srv := echoServe(t, fabric, "peer")
	p := fabricPool(fabric)
	defer p.Close()

	if resp, err := p.Call("peer", []byte("a")); err != nil || string(resp) != "ok:a" {
		t.Fatalf("first call: %q, %v", resp, err)
	}
	first, err := p.Conn("peer")
	if err != nil {
		t.Fatal(err)
	}

	// Bounce the peer: its connection dies with it, and a call while it
	// is down fails at the dial.
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for first.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("connection to a closed server still alive")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Call("peer", []byte("b")); err == nil {
		t.Fatal("call to downed peer succeeded")
	}

	// Back up: the very next call re-dials, with no backoff to wait out.
	srv = echoServe(t, fabric, "peer")
	defer srv.Close()
	if resp, err := p.Call("peer", []byte("c")); err != nil || string(resp) != "ok:c" {
		t.Fatalf("post-bounce call: %q, %v", resp, err)
	}
	if dials, redials := p.Stats(); dials != 2 || redials != 1 {
		t.Fatalf("stats: dials=%d redials=%d, want 2/1", dials, redials)
	}
}

func TestPoolCallTimeoutDropsHungPeer(t *testing.T) {
	fabric := NewNetwork()
	l, err := fabric.Listen("hung")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv := Serve(l, func(p []byte) []byte { <-block; return p })
	// LIFO: unblock the handler before Server.Close waits for it.
	defer srv.Close()
	defer close(block)

	p := fabricPool(fabric)
	defer p.Close()
	hung, err := p.Conn("hung")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := p.CallTimeout("hung", []byte("x"), 50*time.Millisecond); err == nil {
		t.Fatal("call to hung peer returned")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The hung connection was closed and dropped: the next use dials a
	// fresh one instead of queueing behind it.
	if hung.Alive() {
		t.Fatal("timed-out connection left open")
	}
	next, err := p.Conn("hung")
	if err != nil || next == hung {
		t.Fatalf("after timeout: conn %p (was %p), %v; want a fresh one", next, hung, err)
	}
	if dials, redials := p.Stats(); dials != 2 || redials != 1 {
		t.Fatalf("stats: dials=%d redials=%d, want 2/1", dials, redials)
	}
}

// TestPoolDialRaceKeepsOneConnection: concurrent first uses of one
// address all get the same connection; the losers of the dial race
// close theirs.
func TestPoolDialRaceKeepsOneConnection(t *testing.T) {
	fabric := NewNetwork()
	srv := echoServe(t, fabric, "peer")
	defer srv.Close()
	p := fabricPool(fabric)
	defer p.Close()

	const callers = 8
	got := make(chan *Client, callers)
	for i := 0; i < callers; i++ {
		go func() {
			c, err := p.Conn("peer")
			if err != nil {
				t.Error(err)
			}
			got <- c
		}()
	}
	winner := <-got
	for i := 1; i < callers; i++ {
		if c := <-got; c != winner {
			t.Fatalf("callers got different connections: %p and %p", c, winner)
		}
	}
	if _, err := p.Call("peer", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if dials, redials := p.Stats(); dials != 1 || redials != 0 {
		t.Fatalf("stats: dials=%d redials=%d, want 1/0", dials, redials)
	}
}
