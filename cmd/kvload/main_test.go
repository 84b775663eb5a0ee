package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"scalekv/internal/cluster"
	"scalekv/internal/hashring"
	"scalekv/internal/transport"
)

// bootRing starts an n-node ring over loopback TCP, every member booted
// with the full topology, and returns one member's address.
func bootRing(t *testing.T, n, rf int) string {
	t.Helper()
	listeners := make([]transport.Listener, n)
	addrs := make(map[hashring.NodeID]string, n)
	for i := range listeners {
		l, err := transport.ListenTCP("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[hashring.NodeID(i)] = l.Addr()
	}
	ring := hashring.New(n, 16)
	baseDir := t.TempDir()
	for i, l := range listeners {
		id := hashring.NodeID(i)
		node, err := cluster.StartNode(l, cluster.NodeOptions{
			ID:                id,
			Dir:               filepath.Join(baseDir, fmt.Sprintf("node-%d", i)),
			Topology:          ring,
			Addrs:             addrs,
			ReplicationFactor: rf,
			Dialer:            cluster.DialTCP,
			AdvertiseAddr:     addrs[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
	}
	return addrs[1]
}

// TestRunAdoptsRingReplicationFactor drives the -addr path against an
// RF=2 ring from one seed: kvload must report the ring's factor, not a
// default of its own, and finish with zero failed operations.
func TestRunAdoptsRingReplicationFactor(t *testing.T) {
	seed := bootRing(t, 3, 2)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-mix", "update-heavy", "-addr", seed, "-keys", "200", "-cells", "2",
		"-value", "32", "-clients", "2", "-duration", "200ms"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "on 3 nodes (rf=2)") {
		t.Errorf("ring not discovered at rf=2:\n%s", out)
	}
	if !strings.Contains(out, " 0 errors,") || strings.Contains(out, "first error") {
		t.Errorf("failed operations against a healthy ring:\n%s", out)
	}
}

func TestRunFailsOnUnreachableSeed(t *testing.T) {
	// A port that was just open and is now closed: the dial is refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "update-heavy", "-addr", addr}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, &stderr)
	}
	if msg := stderr.String(); !strings.Contains(msg, "connect") || !strings.Contains(msg, addr) {
		t.Errorf("stderr does not carry the dial error for %s:\n%s", addr, msg)
	}
}

func TestRunNeedsAddr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mix", "update-heavy"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage: kvload") {
		t.Errorf("no usage on stderr:\n%s", &stderr)
	}
}
