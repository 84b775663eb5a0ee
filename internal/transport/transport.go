// Package transport provides the message-passing substrate of the real
// (non-simulated) cluster: framed, correlation-tagged request/response
// connections over TCP or over in-process pipes, with optional injected
// latency for experiments.
//
// Frame layout: uint32 length | uint64 correlation id | payload. The
// correlation id lets a client pipeline thousands of requests on one
// connection — the behaviour the paper's master depends on — and match
// responses arriving out of order.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Frame is one tagged message.
type Frame struct {
	Corr    uint64
	Payload []byte
}

// Conn is a bidirectional frame stream. Send, Queue and Flush are safe
// for concurrent use; Recv and Ready belong to the connection's one
// reader.
type Conn interface {
	// Send writes a frame and makes sure it reaches the peer: concurrent
	// Sends share one flush (the last one out performs it), a lone Send
	// pays exactly one write.
	Send(Frame) error
	// Queue writes a frame without flushing. It leaves with the next
	// Send or Flush, or when the write buffer fills.
	Queue(Frame) error
	// Flush pushes queued frames to the peer.
	Flush() error
	// Recv returns the next frame. Its payload belongs to the receiver
	// and to whatever is decoded from it (wire.Codec): TCP reads each
	// frame into a buffer of its own, and the in-process pipe hands over
	// the sender's buffer itself — which is why nobody writes into a
	// payload after passing it to Send or Queue.
	Recv() (Frame, error)
	// Ready reports whether a whole frame is buffered, so that the next
	// Recv cannot block.
	Ready() bool
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// ErrClosed is returned by operations on closed connections.
var ErrClosed = errors.New("transport: closed")

// --- TCP ------------------------------------------------------------------

const (
	frameHeader = 12
	maxFrame    = 64 << 20
	// connBuf sizes a TCP connection's read buffer and its write buffer,
	// and is the step a payload larger than it is read in: one read
	// drains a pipelined burst of small frames, one write carries a
	// batch of them, and a frame header alone never commits more than
	// this much memory.
	connBuf = 64 << 10
)

type tcpConn struct {
	c       net.Conn
	latency time.Duration

	readMu sync.Mutex
	r      *bufio.Reader

	// senders counts Sends between announcing themselves and leaving
	// writeMu. One that leaves while another is announced skips its
	// flush: the later one carries both frames in one write.
	senders atomic.Int32
	writeMu sync.Mutex
	wbuf    []byte // frames written and not flushed yet
	werr    error  // first write error; the stream is broken after it
}

func newTCPConn(c net.Conn, latency time.Duration) *tcpConn {
	return &tcpConn{
		c:       c,
		latency: latency,
		r:       bufio.NewReaderSize(c, connBuf),
		wbuf:    make([]byte, 0, connBuf),
	}
}

// DialTCP connects to a TCP endpoint. A non-zero latency is added to
// every Send, emulating a slower network for experiments.
func DialTCP(addr string, latency time.Duration) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c, latency), nil
}

func (t *tcpConn) Send(f Frame) error {
	if t.latency > 0 {
		time.Sleep(t.latency)
	}
	t.senders.Add(1)
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	err := t.write(f)
	if t.senders.Add(-1) == 0 && err == nil {
		err = t.flush()
	}
	return err
}

func (t *tcpConn) Queue(f Frame) error {
	if t.latency > 0 {
		time.Sleep(t.latency)
	}
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	return t.write(f)
}

func (t *tcpConn) Flush() error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	return t.flush()
}

// write appends a frame to the write buffer, with writeMu held. A frame
// that does not fit beside what is buffered goes out with it in one
// vectored write, so a large payload is never copied.
func (t *tcpConn) write(f Frame) error {
	if t.werr != nil {
		return t.werr
	}
	if frameHeader+len(f.Payload) <= cap(t.wbuf)-len(t.wbuf) {
		t.wbuf = append(appendHeader(t.wbuf, f), f.Payload...)
		return nil
	}
	bufs := net.Buffers{t.wbuf, appendHeader(nil, f), f.Payload}
	_, t.werr = bufs.WriteTo(t.c)
	t.wbuf = t.wbuf[:0]
	return t.werr
}

func appendHeader(dst []byte, f Frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	return binary.BigEndian.AppendUint64(dst, f.Corr)
}

// flush writes the buffered frames out, with writeMu held.
func (t *tcpConn) flush() error {
	if len(t.wbuf) > 0 && t.werr == nil {
		_, t.werr = t.c.Write(t.wbuf)
		t.wbuf = t.wbuf[:0]
	}
	return t.werr
}

func (t *tcpConn) Recv() (Frame, error) {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	hdr, err := t.r.Peek(frameHeader)
	if err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	corr := binary.BigEndian.Uint64(hdr[4:])
	if n > maxFrame {
		return Frame{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	t.r.Discard(frameHeader)
	// Every frame gets a payload buffer of its own, never reused: codecs
	// decode views into it and handlers may return it as their response.
	payload := make([]byte, min(int(n), connBuf))
	for got := 0; ; {
		m, err := io.ReadFull(t.r, payload[got:])
		if err != nil {
			return Frame{}, err
		}
		if got += m; got == int(n) {
			return Frame{Corr: corr, Payload: payload}, nil
		}
		// The header promised more than one buffer: grow by doubling,
		// so memory follows the bytes received, not the advertised
		// length.
		grown := make([]byte, min(int(n), 2*got))
		copy(grown, payload)
		payload = grown
	}
}

func (t *tcpConn) Ready() bool {
	t.readMu.Lock()
	defer t.readMu.Unlock()
	if t.r.Buffered() < frameHeader {
		return false
	}
	hdr, _ := t.r.Peek(frameHeader)
	return uint64(t.r.Buffered()-frameHeader) >= uint64(binary.BigEndian.Uint32(hdr))
}

func (t *tcpConn) Close() error { return t.c.Close() }

type tcpListener struct {
	l       net.Listener
	latency time.Duration
}

// ListenTCP starts a TCP listener; addr ":0" picks a free port.
func ListenTCP(addr string, latency time.Duration) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l, latency: latency}, nil
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t.latency), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// --- In-process -------------------------------------------------------------

// Network is an in-process fabric: named endpoints connected by buffered
// channels, with optional per-frame latency. It lets a whole cluster run
// in one process for tests and small wall-clock experiments.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
	// Latency is applied to every frame crossing the fabric.
	Latency time.Duration
}

// NewNetwork creates an empty fabric.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*pipeListener)}
}

// Listen registers a named endpoint.
func (n *Network) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &pipeListener{
		addr:    addr,
		accept:  make(chan Conn, 16),
		done:    make(chan struct{}),
		network: n,
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a named endpoint. When the listener's accept backlog
// is full — routine under heavy in-process fan-out — Dial blocks until
// the listener drains it, failing only if the listener closes in the
// meantime. A full backlog is backpressure, not an error.
func (n *Network) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	client, server := pipePair(n)
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: dial %q: %w", addr, ErrClosed)
	}
}

func (n *Network) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type pipeListener struct {
	addr    string
	accept  chan Conn
	done    chan struct{} // closed by Close; releases blocked Dials and Accepts
	network *Network
	once    sync.Once
}

func (l *pipeListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		// Drain connections that were queued before the close; their
		// dialers already hold the other end.
		select {
		case c := <-l.accept:
			return c, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		l.network.remove(l.addr)
		close(l.done)
	})
	return nil
}

func (l *pipeListener) Addr() string { return l.addr }

type pipeState struct {
	closed chan struct{}
	once   sync.Once
}

type pipeConn struct {
	in      chan Frame
	out     chan Frame
	network *Network
	state   *pipeState // shared by both ends: closing either closes the pipe
}

func pipePair(n *Network) (Conn, Conn) {
	a2b := make(chan Frame, 1024)
	b2a := make(chan Frame, 1024)
	st := &pipeState{closed: make(chan struct{})}
	a := &pipeConn{in: b2a, out: a2b, network: n, state: st}
	b := &pipeConn{in: a2b, out: b2a, network: n, state: st}
	return a, b
}

func (p *pipeConn) Send(f Frame) error {
	if p.network.Latency > 0 {
		time.Sleep(p.network.Latency)
	}
	select {
	case <-p.state.closed:
		return ErrClosed
	default:
	}
	// Fast path: a buffered send compiles to a plain channel op; the
	// two-way select below costs several times more (selectgo), and
	// under load the buffer almost always has room.
	select {
	case p.out <- f:
		return nil
	default:
	}
	select {
	case p.out <- f:
		return nil
	case <-p.state.closed:
		return ErrClosed
	}
}

// Queue and Flush: a pipe hands frames over one by one, there is nothing
// to batch.
func (p *pipeConn) Queue(f Frame) error { return p.Send(f) }
func (p *pipeConn) Flush() error        { return nil }
func (p *pipeConn) Ready() bool         { return len(p.in) > 0 }

func (p *pipeConn) Recv() (Frame, error) {
	// Fast path: under load a frame is already queued, and the plain
	// non-blocking receive skips selectgo entirely.
	select {
	case f := <-p.in:
		return f, nil
	default:
	}
	select {
	case f := <-p.in:
		return f, nil
	case <-p.state.closed:
		// Drain anything already delivered before reporting closure.
		select {
		case f := <-p.in:
			return f, nil
		default:
			return Frame{}, ErrClosed
		}
	}
}

func (p *pipeConn) Close() error {
	p.state.once.Do(func() { close(p.state.closed) })
	return nil
}
