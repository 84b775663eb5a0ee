package transport

import (
	"fmt"
	"sync"
	"time"
)

// Caller issues one request and blocks for its response. A Client is
// one; Pool.Caller binds a pool to an address, so code that forwards,
// probes or streams can hold either a raw connection or a pooled one.
type Caller interface {
	Call(payload []byte) ([]byte, error)
}

// Pool holds at most one connection per address. A connection is
// dialed on first use, outside the pool's lock (the loser of a dial
// race closes its own), and is never handed out once its reader has
// ended: the next use re-dials. A failed call drops its connection, so
// a bounced peer is re-dialed on the next call. There is no backoff;
// callers pace their own retries. Safe for concurrent use.
type Pool struct {
	dial func(addr string) (*Client, error)

	mu sync.Mutex
	// conns maps every address ever dialed to its current connection,
	// nil once dropped: a dial to an address already in it is a redial.
	conns          map[string]*Client
	dials, redials uint64
	closed         bool
}

// NewPool makes a pool that opens its connections with dial.
func NewPool(dial func(addr string) (*Client, error)) *Pool {
	return &Pool{dial: dial, conns: make(map[string]*Client)}
}

// Conn returns the live connection to addr, dialing one if there is
// none.
func (p *Pool) Conn(addr string) (*Client, error) {
	p.mu.Lock()
	c, closed := p.conns[addr], p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if c != nil && c.Alive() {
		return c, nil
	}
	fresh, err := p.dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		fresh.Close()
		return nil, ErrClosed
	}
	cur, seen := p.conns[addr]
	if cur != nil && cur.Alive() {
		p.mu.Unlock()
		fresh.Close() // lost the dial race
		return cur, nil
	}
	p.conns[addr] = fresh
	p.dials++
	if seen {
		p.redials++
	}
	p.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	return fresh, nil
}

// Drop forgets c as addr's connection and closes it, so the next use
// re-dials; a nil c drops whatever addr holds. A c that was already
// replaced is closed and the replacement kept.
func (p *Pool) Drop(addr string, c *Client) {
	p.mu.Lock()
	cur := p.conns[addr]
	if cur != nil && (c == nil || c == cur) {
		p.conns[addr] = nil
		c = cur
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Call issues one request to addr and waits for the reply. On failure
// the connection is dropped.
func (p *Pool) Call(addr string, payload []byte) ([]byte, error) {
	c, err := p.Conn(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(payload)
	if err != nil {
		p.Drop(addr, c)
	}
	return resp, err
}

// CallTimeout is Call with a deadline on the reply. A timed-out
// connection is dropped like a broken one: its stream may be wedged
// behind a hung peer, and the next call should not queue behind it.
// Probes and departure announcements use it so a hung peer cannot stall
// their loop.
func (p *Pool) CallTimeout(addr string, payload []byte, d time.Duration) ([]byte, error) {
	c, err := p.Conn(addr)
	if err != nil {
		return nil, err
	}
	ch, err := c.Go(payload)
	if err != nil {
		p.Drop(addr, c)
		return nil, err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case resp, ok := <-ch:
		if ok {
			return resp, nil
		}
		err = fmt.Errorf("transport: call failed: connection broken")
	case <-t.C:
		err = fmt.Errorf("transport: call timed out after %v", d)
	}
	p.Drop(addr, c)
	return nil, err
}

// Caller binds the pool to one address.
func (p *Pool) Caller(addr string) Caller { return addrCaller{p, addr} }

type addrCaller struct {
	p    *Pool
	addr string
}

func (a addrCaller) Call(payload []byte) ([]byte, error) { return a.p.Call(a.addr, payload) }

// Stats returns how many connections the pool has dialed, and how many
// of those replaced an earlier connection to the same address.
func (p *Pool) Stats() (dials, redials uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials, p.redials
}

// Close closes every connection and fails every later use.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
