package cluster

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"scalekv/internal/hashring"
	"scalekv/internal/row"
	"scalekv/internal/transport"
	"scalekv/internal/wire"
)

// sealedFrame is a payload as it was when its connection sent it.
type sealedFrame struct {
	what    string
	payload []byte
	sum     uint32
}

func (f sealedFrame) intact() bool { return crc32.ChecksumIEEE(f.payload) == f.sum }

// frameSeals checksums every payload a sealing connection sends, so a
// later write into a frame — by the receiver, by a second receiver of
// the same buffer, or by the sender — shows up as a changed checksum.
type frameSeals struct {
	mu     sync.Mutex
	frames []sealedFrame
	broken []string
}

func (s *frameSeals) seal(payload []byte) sealedFrame {
	what := "undecodable frame"
	if m, err := (wire.FastCodec{}).Unmarshal(payload); err == nil {
		what = fmt.Sprintf("%T", m)
	}
	f := sealedFrame{what, payload, crc32.ChecksumIEEE(payload)}
	s.mu.Lock()
	s.frames = append(s.frames, f)
	s.mu.Unlock()
	return f
}

func (s *frameSeals) check(f sealedFrame, when string) {
	if !f.intact() {
		s.mu.Lock()
		s.broken = append(s.broken, f.what+" written into "+when)
		s.mu.Unlock()
	}
}

// verify re-checks every frame ever sent and reports what broke.
func (s *frameSeals) verify(t *testing.T) {
	t.Helper()
	for _, f := range s.frames {
		s.check(f, "by the end of the test")
	}
	for _, b := range s.broken {
		t.Error(b)
	}
}

func (s *frameSeals) wrap(conn transport.Conn) transport.Conn {
	return &sealingConn{Conn: conn, seals: s, sent: make(map[uint64]sealedFrame)}
}

// sealingConn seals every frame it sends and, when the reply to one of
// its requests arrives, re-checks that request.
type sealingConn struct {
	transport.Conn
	seals *frameSeals
	mu    sync.Mutex
	sent  map[uint64]sealedFrame
}

func (c *sealingConn) record(f transport.Frame) {
	sealed := c.seals.seal(f.Payload)
	c.mu.Lock()
	c.sent[f.Corr] = sealed
	c.mu.Unlock()
}

func (c *sealingConn) Send(f transport.Frame) error {
	c.record(f)
	return c.Conn.Send(f)
}

func (c *sealingConn) Queue(f transport.Frame) error {
	c.record(f)
	return c.Conn.Queue(f)
}

func (c *sealingConn) Recv() (transport.Frame, error) {
	f, err := c.Conn.Recv()
	if err != nil {
		return f, err
	}
	c.mu.Lock()
	req, ok := c.sent[f.Corr]
	delete(c.sent, f.Corr)
	c.mu.Unlock()
	if ok {
		c.seals.check(req, "before its reply arrived")
	}
	return f, nil
}

type sealingListener struct {
	transport.Listener
	seals *frameSeals
}

func (l sealingListener) Accept() (transport.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.seals.wrap(conn), nil
}

// TestFramesAreReadOnlyEndToEnd pins the frame ownership rule the codec
// relies on (wire.Codec): a frame belongs to the message decoded from
// it, and nobody writes into a frame after sending it. The in-process
// transport hands the sender's buffer to the receiver, and a replicated
// write hands one buffer to every replica, so the FastCodec's views are
// shared exactly where a stray write would do damage. Every connection
// of an RF=2 cluster — client, node-to-node, coordinator — seals what it
// sends; every client operation, a repair pass that ships cells and a
// join's range stream then run over it.
func TestFramesAreReadOnlyEndToEnd(t *testing.T) {
	seals := &frameSeals{}
	network := transport.NewNetwork()
	c, err := start(LocalOptions{Nodes: 3, ReplicationFactor: 2},
		func(id hashring.NodeID) (transport.Listener, string, error) {
			addr := fmt.Sprintf("node-%d", id)
			l, err := network.Listen(addr)
			return sealingListener{l, seals}, addr, err
		},
		func(addr string) (*transport.Client, error) {
			conn, err := network.Dial(addr)
			if err != nil {
				return nil, err
			}
			return transport.NewClient(seals.wrap(conn)), nil
		}, network)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer seals.verify(t) // also after a failed check below
	cli := c.Client()

	const parts, cells = 8, 6
	pk := func(p int) string { return fmt.Sprintf("part-%d", p) }
	ck := func(i int) []byte { return []byte(fmt.Sprintf("ck-%02d", i)) }
	val := func(p, i int) []byte { return []byte(fmt.Sprintf("\x01value-%d-%d", p, i)) }
	for p := range parts {
		for i := range cells / 2 {
			if err := cli.Put(pk(p), ck(i), val(p, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var batch []row.Entry
	for p := range parts {
		for i := cells / 2; i < cells; i++ {
			batch = append(batch, row.Entry{PK: pk(p), CK: ck(i), Value: val(p, i)})
		}
	}
	if err := cli.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cli.Delete(pk(0), ck(0)); err != nil {
		t.Fatal(err)
	}

	if v, found, err := cli.Get(pk(1), ck(1)); err != nil || !found || !bytes.Equal(v, val(1, 1)) {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
	got, err := cli.Scan(pk(2), nil, nil)
	if err != nil || len(got) != cells {
		t.Fatalf("scan: %d cells, %v", len(got), err)
	}
	keys := []wire.GetKey{{PK: pk(3), CK: ck(4)}, {PK: pk(4), CK: ck(5)}, {PK: pk(0), CK: ck(0)}}
	mg, err := cli.MultiGet(keys)
	if err != nil || !mg[0].Found || !mg[1].Found || mg[2].Found {
		t.Fatalf("multi-get: %+v %v", mg, err)
	}
	pks := make([]string, parts)
	for p := range pks {
		pks[p] = pk(p)
	}
	res, err := cli.CountAll(pks, MasterOptions{})
	if err != nil || res.Errors != 0 || res.Elements != parts*cells-1 {
		t.Fatalf("count-all: %+v %v", res, err)
	}

	// One replica of a partition misses a cell the other has: the repair
	// pass streams both sides and ships the winner.
	owner := c.Topology().Replicas(pk(5), 2)[0]
	divergeAt(t, c, owner, row.Entry{PK: pk(5), CK: []byte("only-here"), Value: []byte("x"),
		Ver: row.Version{Seq: repairBaseSeq, Node: uint16(owner)}})
	rep, err := c.Repair(2)
	if err != nil || rep.CellsShipped == 0 {
		t.Fatalf("repair: %+v %v", rep, err)
	}

	_, report, err := c.AddNode()
	if err != nil || report.CellsStreamed == 0 {
		t.Fatalf("join: %+v %v", report, err)
	}
	if v, found, err := cli.Get(pk(6), ck(2)); err != nil || !found || !bytes.Equal(v, val(6, 2)) {
		t.Fatalf("get after the join: %q %v %v", v, found, err)
	}

	// Results alias their response frames; the checks above read them,
	// so they must still hold the values that were served.
	if !bytes.Equal(got[cells-1].Value, val(2, cells-1)) || !bytes.Equal(mg[0].Value, val(3, 4)) {
		t.Fatal("a result changed after it was returned")
	}
}
