package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgeejb/internal/obs"
)

// ConnHandler holds the per-connection state of one protocol — for the
// database protocol that is the connection's open transactions and
// subscription pushers. The Server creates one handler per accepted
// connection.
type ConnHandler interface {
	// NewRequest allocates a fresh request body to decode into (gob
	// omits zero fields, so bodies must never be reused).
	NewRequest() any
	// Handle processes one request and returns the response body (nil
	// suppresses the response). Handle runs on its own goroutine, so a
	// connection's requests execute concurrently; per-connection state
	// must be synchronized by the handler.
	Handle(ctx context.Context, sess *Session, id uint64, req any) any
	// Close releases per-connection state after the last in-flight
	// Handle has returned (or been force-cancelled).
	Close()
}

// Session is a handler's interface to its connection.
type Session struct {
	sc *serverConn
}

// Context is cancelled when the connection is torn down or the server
// force-closes; long waits inside handlers should respect it.
func (s *Session) Context() context.Context { return s.sc.ctx }

// Push writes an unsolicited frame to the client, tagged with the ID
// of the request that opened the push stream. Safe for concurrent use.
func (s *Session) Push(id uint64, body any) error {
	sc := s.sc
	sc.wmu.Lock()
	_ = sc.nc.SetWriteDeadline(time.Time{})
	n, err := sc.fw.writeFrame(&frameHeader{ID: id, Kind: kindPush}, body)
	sc.wmu.Unlock()
	if err != nil {
		if n > 0 {
			// The truncated push still put bytes on the path; account
			// them without counting a delivered push.
			sc.srv.stats.sent("push", n)
		}
		return fmt.Errorf("wire: push: %w", err)
	}
	sc.srv.stats.push("push", n, true)
	return nil
}

// SetReadCodec switches the session's inbound direction to the codec,
// effective from the next frame the reader starts. The handler calls
// this while serving the handshake request, before the client can have
// sent any frame in the new encoding.
func (s *Session) SetReadCodec(c BodyCodec) { s.sc.fr.setCodec(c) }

// SetWriteCodecAfter arms the outbound codec switch: the codec is
// installed immediately after the response to request id is written, so
// the handshake reply itself still travels in the old encoding and
// everything after it in the new one.
func (s *Session) SetWriteCodecAfter(id uint64, c BodyCodec) {
	sc := s.sc
	sc.wmu.Lock()
	sc.codecAfterID = id
	sc.codecAfter = c
	sc.wmu.Unlock()
}

// Hangup severs the connection. Push-mode handlers use it when the
// upstream source feeding their pushes dies: silently stopping would
// leave the client listening on a healthy-looking stream that will
// never deliver again, whereas a hangup makes the client's teardown
// and resubscribe machinery run. Safe for concurrent use; the reader
// goroutine observes the closed socket and performs the full teardown.
func (s *Session) Hangup() { _ = s.sc.nc.Close() }

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithDrainTimeout bounds how long Close waits for in-flight requests
// before force-closing connections (default 5s).
func WithDrainTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.drainTimeout = d
		}
	}
}

// WithServerMaxFrame overrides the maximum accepted frame size.
func WithServerMaxFrame(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxFrame = n
		}
	}
}

// WithServerBodyCodec installs c as the body codec of every accepted
// connection, in both directions, from the first frame on — the
// counterpart of the client's WithBodyCodec. Protocols that negotiate
// their codec (SetReadCodec / SetWriteCodecAfter) leave it unset.
func WithServerBodyCodec(c BodyCodec) ServerOption {
	return func(s *Server) { s.bodyCodec = c }
}

// Releaser is implemented by response bodies that hold pooled memory.
// The server calls Release once the response frame has been written,
// or its write has failed; the body must not be touched afterwards.
type Releaser interface {
	Release()
}

// Server accepts framed connections and dispatches their requests to
// per-connection handlers. Close drains gracefully: stop accepting,
// let in-flight requests finish (bounded by the drain timeout), then
// force-close whatever remains.
type Server struct {
	newHandler   func() ConnHandler
	drainTimeout time.Duration
	maxFrame     int
	bodyCodec    BodyCodec
	stats        *collector
	baseCtx      context.Context
	cancel       context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server that creates one handler per connection.
func NewServer(newHandler func() ConnHandler, opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		newHandler:   newHandler,
		drainTimeout: 5 * time.Second,
		maxFrame:     DefaultMaxFrame,
		stats:        newCollector("server"),
		baseCtx:      ctx,
		cancel:       cancel,
		conns:        make(map[*serverConn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Start begins listening on addr (e.g. "127.0.0.1:0").
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address; Start must have succeeded.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		panic("wire: Addr before Start")
	}
	return s.ln.Addr().String()
}

// Stats returns a snapshot of this server's transport counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		sc := &serverConn{
			srv:    s,
			nc:     nc,
			h:      s.newHandler(),
			fw:     newFrameWriter(nc),
			fr:     newFrameReader(nc, s.maxFrame),
			ctx:    ctx,
			cancel: cancel,
			tasks:  make(chan dispatchTask),
		}
		if s.bodyCodec != nil {
			sc.fw.codec = s.bodyCodec
			sc.fr.setCodec(s.bodyCodec)
		}
		s.conns[sc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go sc.serve()
	}
}

func (s *Server) removeConn(sc *serverConn) {
	s.mu.Lock()
	delete(s.conns, sc)
	s.mu.Unlock()
}

// Close drains the server: stop accepting, wake every connection
// reader, wait for in-flight requests up to the drain timeout, then
// force-close stragglers and cancel their session contexts.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, sc := range conns {
		sc.draining.Store(true)
		_ = sc.nc.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.drainTimeout):
		// Force phase: cancel every session context (unblocking
		// handlers parked in lock or channel waits) and sever the
		// sockets, then wait for the goroutines to unwind.
		s.cancel()
		s.mu.Lock()
		for sc := range s.conns {
			_ = sc.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.cancel()
}

type serverConn struct {
	srv    *Server
	nc     net.Conn
	h      ConnHandler
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex
	fw  *frameWriter
	// codecAfter, when non-nil, is installed as the write codec right
	// after the response to codecAfterID is written (see
	// Session.SetWriteCodecAfter). Guarded by wmu.
	codecAfter   BodyCodec
	codecAfterID uint64

	fr *frameReader // serve-goroutine only

	handlers sync.WaitGroup
	draining atomic.Bool

	// tasks hands requests to idle warm dispatch workers; see worker.
	tasks chan dispatchTask
}

// dispatchTask is one decoded request on its way to a handler
// goroutine.
type dispatchTask struct {
	ctx   context.Context
	id    uint64
	label string
	body  any
}

func (sc *serverConn) serve() {
	defer sc.srv.wg.Done()
	graceful := sc.readRequests()
	if graceful {
		// Drain: let in-flight handlers finish and flush their
		// responses before the socket goes away.
		sc.handlers.Wait()
		sc.cancel()
	} else {
		// Broken connection: unblock handlers first, then reap them.
		sc.cancel()
		sc.handlers.Wait()
	}
	_ = sc.nc.Close()
	sc.h.Close()
	sc.srv.removeConn(sc)
}

// readRequests decodes and dispatches frames until the connection
// breaks or the server starts draining; it reports whether the exit
// was a graceful drain.
func (sc *serverConn) readRequests() bool {
	for {
		size, err := sc.fr.readFrame(nil)
		if err != nil {
			// The only deadline ever set on a server connection is the
			// drain wakeup.
			return isTimeout(err) && sc.draining.Load()
		}
		if sc.draining.Load() {
			return true
		}
		var h frameHeader
		if err := sc.fr.decode(&h); err != nil {
			return false
		}
		if h.Kind != kindRequest {
			return false
		}
		body := sc.h.NewRequest()
		if err := sc.fr.decodeBody(body); err != nil {
			return false
		}
		label := labelOf(body)
		sc.srv.stats.received(label, size)
		sc.handlers.Add(1)
		// Requests arriving with a trace ID continue that trace on this
		// side of the process boundary, parented under the caller's span
		// (obs.WithRemoteParent is a no-op on a zero trace).
		t := dispatchTask{ctx: obs.WithRemoteParent(sc.ctx, h.Trace, h.Span), id: h.ID, label: label, body: body}
		select {
		case sc.tasks <- t:
			// Handed to an idle warm worker.
		default:
			// Every worker is busy (or none exists yet): grow the pool.
			go sc.worker(t)
		}
	}
}

// worker runs one dispatch, then parks waiting for the next request
// instead of exiting. Reusing the goroutine keeps its already-grown
// stack warm: response encoding is deep enough to outgrow a fresh
// goroutine's initial stack, and a goroutine-per-request design pays
// that stack-copy on every single call. Idle workers are reaped when
// the connection's context is cancelled at teardown.
func (sc *serverConn) worker(t dispatchTask) {
	for {
		sc.dispatch(t.ctx, t.id, t.label, t.body)
		select {
		case t = <-sc.tasks:
		case <-sc.ctx.Done():
			return
		}
	}
}

func (sc *serverConn) dispatch(ctx context.Context, id uint64, label string, body any) {
	defer sc.handlers.Done()
	start := time.Now()
	resp := sc.h.Handle(ctx, &Session{sc: sc}, id, body)
	if resp == nil {
		return
	}
	sc.wmu.Lock()
	_ = sc.nc.SetWriteDeadline(time.Time{})
	n, err := sc.fw.writeFrame(&frameHeader{ID: id, Kind: kindResponse}, resp)
	if err == nil && sc.codecAfter != nil && sc.codecAfterID == id {
		sc.fw.codec = sc.codecAfter
		sc.codecAfter = nil
	}
	sc.wmu.Unlock()
	if r, ok := resp.(Releaser); ok {
		r.Release()
	}
	if err != nil {
		if n > 0 {
			sc.srv.stats.sent(label, n)
		}
		sc.srv.stats.failure(label)
		// A failed response write means the stream is broken for every
		// other in-flight response too.
		if !errors.Is(err, net.ErrClosed) {
			_ = sc.nc.Close()
		}
		return
	}
	sc.srv.stats.sent(label, n)
	sc.srv.stats.roundTrip(label, time.Since(start))
}
