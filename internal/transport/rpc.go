package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler processes one request payload and returns the response
// payload. Handlers run concurrently.
type Handler func(payload []byte) []byte

// InlineHandler is a Handler split in two. It runs on the connection's
// reader goroutine, so a request it answers itself costs no goroutine
// hand-off; it must do so only for work that can never wait on another
// RPC or on backpressure, because nothing else is read from the
// connection while it runs. For everything else it returns a nil
// response and the rest of the request as a function, which the
// connection's worker pool runs like a Handler. Decoding once and
// capturing the message in rest keeps the decision codec-agnostic.
type InlineHandler func(payload []byte) (resp []byte, rest func() []byte)

// Server accepts connections from a Listener and dispatches every
// inbound frame to the handler, writing the response back under the same
// correlation id.
type Server struct {
	l       Listener
	handler InlineHandler
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[Conn]struct{}
	closed  atomic.Bool
}

// Serve starts accepting in the background and returns immediately.
// Every request runs on the worker pool: an arbitrary handler cannot be
// assumed non-blocking.
func Serve(l Listener, handler Handler) *Server {
	return ServeInline(l, func(payload []byte) ([]byte, func() []byte) {
		return nil, func() []byte { return handler(payload) }
	})
}

// ServeInline is Serve for a handler that can tell which requests are
// safe to run to completion on the reader goroutine.
func ServeInline(l Listener, handler InlineHandler) *Server {
	s := &Server{l: l, handler: handler, conns: make(map[Conn]struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed.Load() {
				// Close already swept s.conns; a connection that was
				// queued in the listener's backlog would otherwise leak
				// an unclosed serveConn and deadlock Close's Wait.
				s.mu.Unlock()
				conn.Close()
				continue
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(conn)
		}
	}()
	return s
}

// serveWorkers bounds the persistent per-connection handler pool;
// serveQueue is its inbound request buffer. Requests beyond both spill
// to one-shot goroutines, so blocked handlers never stop the reader
// from reading — the pool is a fast path, never a limit. (The pool
// grows only when the queue is full: until then a request can wait in
// it behind a busy worker.)
const (
	serveWorkers = 32
	serveQueue   = 128
)

// request is what the inline handler left of a frame for a pool worker.
type request struct {
	corr uint64
	rest func() []byte
}

func (s *Server) serveConn(conn Conn) {
	defer s.wg.Done()
	// The peer hung up or Close swept us: either way this end is done.
	// Without the Close a disconnected client would cost the server one
	// descriptor (and one conns entry) until the whole server closes.
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var inflight sync.WaitGroup
	defer inflight.Wait()
	handle := func(r request) {
		// Send error only matters for liveness; the reader loop
		// will observe the broken connection.
		_ = conn.Send(Frame{Corr: r.corr, Payload: r.rest()})
	}
	// Handlers run on a pool of persistent workers grown one at a time
	// as concurrency demands: a goroutine per request pays goroutine
	// start + cold-stack growth on every RPC (measured ~25% of a
	// saturated in-process cluster's CPU in the runtime's stack and
	// scheduling machinery); a warm worker pays neither. Sequential
	// traffic stays on one worker; pipelined bursts grow the pool up
	// to serveWorkers.
	requests := make(chan request, serveQueue)
	defer close(requests)
	workers := 0
	queued := false // inline responses written and not flushed yet
	for {
		// Inline responses pile up in the write buffer while whole
		// requests are still buffered on the read side, and leave in
		// one write before any read that can block.
		if queued && !conn.Ready() {
			_ = conn.Flush()
			queued = false
		}
		f, err := conn.Recv()
		if err != nil {
			return
		}
		resp, rest := s.handler(f.Payload)
		if rest == nil {
			_ = conn.Queue(Frame{Corr: f.Corr, Payload: resp})
			queued = true
			continue
		}
		r := request{corr: f.Corr, rest: rest}
		if workers > 0 {
			select {
			case requests <- r:
				continue
			default: // every worker busy and the queue is full
			}
		}
		if workers < serveWorkers {
			workers++
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				for r := range requests {
					handle(r)
				}
			}()
			requests <- r
			continue
		}
		// Saturated pool: fall back to the one-goroutine-per-request
		// model for the overflow so a handler that blocks on another
		// in-flight request can never wedge the connection.
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			handle(r)
		}()
	}
}

// Close stops accepting and closes every open connection.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.l.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Client pipelines requests over one connection, matching responses by
// correlation id. Safe for concurrent use.
type Client struct {
	conn     Conn
	mu       sync.Mutex
	pending  map[uint64]chan []byte
	nextCorr uint64
	closed   bool
	readErr  error
	done     chan struct{}
}

// NewClient wraps a connection and starts its response dispatcher.
func NewClient(conn Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan []byte), done: make(chan struct{})}
	go c.readLoop()
	return c
}

func (c *Client) readLoop() {
	for {
		f, err := c.conn.Recv()
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for corr, ch := range c.pending {
				close(ch)
				delete(c.pending, corr)
			}
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.Corr]
		if ok {
			delete(c.pending, f.Corr)
		}
		c.mu.Unlock()
		if ok {
			ch <- f.Payload
		}
	}
}

// Go issues a request asynchronously; the returned channel yields the
// response payload, or is closed on connection failure.
func (c *Client) Go(payload []byte) (<-chan []byte, error) {
	return c.issue(payload, true)
}

// Queue is Go without the flush: the request leaves with the next Go or
// Flush on this client, or when the connection's write buffer fills. A
// caller with a burst to send queues all of it and flushes once, paying
// one write instead of one per request; until it flushes, nothing
// promises the peer has seen any of it.
func (c *Client) Queue(payload []byte) (<-chan []byte, error) {
	return c.issue(payload, false)
}

// Flush pushes queued requests to the peer.
func (c *Client) Flush() error { return c.conn.Flush() }

func (c *Client) issue(payload []byte, flush bool) (<-chan []byte, error) {
	ch := make(chan []byte, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextCorr++
	corr := c.nextCorr
	c.pending[corr] = ch
	c.mu.Unlock()

	send := c.conn.Queue
	if flush {
		send = c.conn.Send
	}
	if err := send(Frame{Corr: corr, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, corr)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Call issues a request and blocks for its response.
func (c *Client) Call(payload []byte) ([]byte, error) {
	ch, err := c.Go(payload)
	if err != nil {
		return nil, err
	}
	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, fmt.Errorf("transport: call failed: %w", err)
	}
	return resp, nil
}

// Alive reports whether the connection's reader is still running. Once
// it has ended, every request on this client fails.
func (c *Client) Alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}
