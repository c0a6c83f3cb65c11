package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testReq/testResp exercise the transport without any protocol on top.
type testReq struct {
	Op      string
	Payload string
	N       int
}

func (r *testReq) WireLabel() string { return r.Op }

type testResp struct {
	Payload string
	N       int
}

// testHandler implements a tiny per-connection protocol: echo, sleep,
// a per-connection counter (proving stream pinning), and a push stream.
type testHandler struct {
	mu      sync.Mutex
	counter int
	pushers sync.WaitGroup
}

func (h *testHandler) NewRequest() any { return new(testReq) }

func (h *testHandler) Handle(ctx context.Context, sess *Session, id uint64, req any) any {
	r := req.(*testReq)
	switch r.Op {
	case "echo":
		return &testResp{Payload: r.Payload, N: r.N}
	case "sleep":
		select {
		case <-time.After(time.Duration(r.N) * time.Millisecond):
		case <-ctx.Done():
		}
		return &testResp{Payload: "slept", N: r.N}
	case "count":
		h.mu.Lock()
		h.counter++
		n := h.counter
		h.mu.Unlock()
		return &testResp{N: n}
	case "subscribe":
		h.pushers.Add(1)
		go func() {
			defer h.pushers.Done()
			for i := 1; ; i++ {
				select {
				case <-time.After(time.Millisecond):
					if sess.Push(id, &testResp{Payload: "tick", N: i}) != nil {
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		return &testResp{Payload: "subscribed"}
	case "flood":
		h.pushers.Add(1)
		go func() {
			defer h.pushers.Done()
			for i := 1; ctx.Err() == nil; i++ {
				if sess.Push(id, &testResp{Payload: "tick", N: i}) != nil {
					return
				}
			}
		}()
		return &testResp{Payload: "flooding"}
	default:
		return &testResp{Payload: "unknown op " + r.Op}
	}
}

func (h *testHandler) Close() { h.pushers.Wait() }

func startTestServer(t *testing.T, opts ...ServerOption) *Server {
	t.Helper()
	srv := NewServer(func() ConnHandler { return &testHandler{} }, opts...)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestCallRoundTrip(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		resp := new(testResp)
		if err := c.Call(ctx, &testReq{Op: "echo", Payload: "hello", N: i}, resp); err != nil {
			t.Fatal(err)
		}
		if resp.Payload != "hello" || resp.N != i {
			t.Fatalf("echo %d => %+v", i, resp)
		}
	}
	s := c.Stats()
	if s.RoundTrips != 5 || s.Dials != 1 {
		t.Fatalf("stats = %d RTs / %d dials, want 5 / 1", s.RoundTrips, s.Dials)
	}
	if s.Ops["echo"].Count != 5 {
		t.Fatalf("echo op count = %d, want 5", s.Ops["echo"].Count)
	}
	if s.BytesSent == 0 || s.BytesReceived == 0 {
		t.Fatal("byte counters not populated")
	}
	if s.Ops["echo"].MeanDur() <= 0 {
		t.Fatal("latency not recorded")
	}
	// The server counts a round trip after writing its response, so the
	// client can see the fifth response before the server has counted it.
	ss := srv.Stats()
	for deadline := time.Now().Add(time.Second); ss.RoundTrips < 5 && time.Now().Before(deadline); ss = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if ss.RoundTrips != 5 {
		t.Fatalf("server RTs = %d, want 5", ss.RoundTrips)
	}
	// Client and server see the same traffic, mirrored.
	if ss.BytesReceived != s.BytesSent || ss.BytesSent != s.BytesReceived {
		t.Fatalf("byte accounting mismatch: client %d/%d vs server %d/%d",
			s.BytesSent, s.BytesReceived, ss.BytesSent, ss.BytesReceived)
	}
}

// TestConcurrentMultiplexStress hammers one client from many goroutines
// with a mix of shared one-shot calls and pinned streams; run under
// -race this doubles as the transport's synchronization audit.
func TestConcurrentMultiplexStress(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	const goroutines = 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%4 == 0 {
					// Pinned stream: the per-connection counter must be
					// strictly increasing across calls on one stream.
					st, err := c.OpenStream(ctx)
					if err != nil {
						errs <- err
						return
					}
					last := 0
					for k := 0; k < 3; k++ {
						resp := new(testResp)
						if err := st.Call(ctx, &testReq{Op: "count"}, resp); err != nil {
							st.Hangup()
							errs <- err
							return
						}
						if resp.N <= last {
							st.Hangup()
							errs <- fmt.Errorf("stream not pinned: count went %d -> %d", last, resp.N)
							return
						}
						last = resp.N
					}
					st.Close()
				} else {
					want := fmt.Sprintf("g%d-i%d", g, i)
					resp := new(testResp)
					if err := c.Call(ctx, &testReq{Op: "echo", Payload: want, N: g*1000 + i}, resp); err != nil {
						errs <- err
						return
					}
					if resp.Payload != want || resp.N != g*1000+i {
						errs <- fmt.Errorf("cross-wired response: want %q got %+v", want, resp)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s := c.Stats()
	if s.Errors != 0 {
		t.Fatalf("stress produced %d transport errors", s.Errors)
	}
	// 30 echo goroutines share the multiplexed conns; pinned streams
	// pool up to 4 conns. Way fewer dials than calls proves reuse.
	if s.Dials > 30 {
		t.Fatalf("%d dials for %d round trips — pooling broken", s.Dials, s.RoundTrips)
	}
}

// TestMultiplexedCallsShareOneRoundTrip: N concurrent calls over the
// shared connections must complete in ~1 round-trip wall time, not N —
// the transport pipelines them by request ID.
func TestMultiplexedCallsShareOneRoundTrip(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr(), WithMaxConns(1))
	defer c.Close()
	ctx := context.Background()

	// Each request parks 40ms in the handler. Serialized, 16 requests
	// would take >640ms; multiplexed over ONE connection they overlap.
	warm := new(testResp)
	if err := c.Call(ctx, &testReq{Op: "echo"}, warm); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := new(testResp)
			if err := c.Call(ctx, &testReq{Op: "sleep", N: 40}, resp); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > 320*time.Millisecond {
		t.Fatalf("16 concurrent 40ms calls took %v — not multiplexed", elapsed)
	}
	if s := c.Stats(); s.Dials != 1 {
		t.Fatalf("dials = %d, want 1 (single shared conn)", s.Dials)
	}
}

// TestContextDeadlineOnStalledServer: a call against a server that
// accepts but never answers must return within the context deadline —
// the satellite regression for ctx being ignored on in-flight I/O.
func TestContextDeadlineOnStalledServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept, read nothing, answer nothing
		}
	}()

	c := NewClient(ln.Addr().String())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()

	start := time.Now()
	resp := new(testResp)
	err = c.Call(ctx, &testReq{Op: "echo"}, resp)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against stalled server succeeded")
	}
	// The socket's read deadline is set to the context deadline and may
	// fire a hair before the context's own timer publishes Done, so a
	// DeadlineExceeded error with ctx.Err() still nil is a correct
	// outcome, not an early return.
	if ctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("returned before deadline with %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("call hung %v past its 150ms deadline", elapsed)
	}
}

// TestContextCancelReleasesCall: explicit cancellation (no deadline)
// unblocks an in-flight call, and the connection survives for the
// still-pending slow call whose reply arrives later.
func TestContextCancelReleasesCall(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr(), WithMaxConns(1))
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		resp := new(testResp)
		done <- c.Call(ctx, &testReq{Op: "sleep", N: 2000}, resp)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call returned nil")
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call did not return")
	}

	// The shared connection must still work: the orphaned reply is
	// decoded and discarded without desyncing the gob stream.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	resp := new(testResp)
	if err := c.Call(ctx2, &testReq{Op: "echo", Payload: "after-cancel"}, resp); err != nil {
		t.Fatalf("conn broken after cancelled call: %v", err)
	}
	if resp.Payload != "after-cancel" {
		t.Fatalf("got %+v", resp)
	}
}

// TestServerGracefulDrain: Close while a request is in flight lets the
// handler finish and the response reach the client.
func TestServerGracefulDrain(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	done := make(chan error, 1)
	resp := new(testResp)
	go func() {
		done <- c.Call(ctx, &testReq{Op: "sleep", N: 200}, resp)
	}()
	time.Sleep(50 * time.Millisecond) // request is in the handler now
	srv.Close()                       // must drain, not sever

	if err := <-done; err != nil {
		t.Fatalf("in-flight call lost during drain: %v", err)
	}
	if resp.Payload != "slept" {
		t.Fatalf("got %+v", resp)
	}
}

// TestServerCloseLeaksNoGoroutines: the drain path must reap every
// handler/reader/pusher goroutine — the satellite leak-check.
func TestServerCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		srv := NewServer(func() ConnHandler { return &testHandler{} })
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		c := NewClient(srv.Addr())
		ctx := context.Background()

		// Mix of finished calls, a push stream, and an in-flight sleeper.
		resp := new(testResp)
		if err := c.Call(ctx, &testReq{Op: "echo"}, resp); err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan struct{}, 1)
		st.OnPush(func() any { return new(testResp) },
			func(any) {
				select {
				case got <- struct{}{}:
				default:
				}
			}, nil)
		if err := st.Call(ctx, &testReq{Op: "subscribe"}, new(testResp)); err != nil {
			t.Fatal(err)
		}
		<-got // pusher is live
		go func() {
			_ = c.Call(ctx, &testReq{Op: "sleep", N: 100}, new(testResp))
		}()
		time.Sleep(20 * time.Millisecond)

		srv.Close()
		c.Close()
	}

	// Goroutine counts are noisy; wait for the count to settle back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPushHangupDuringDelivery: hanging up a stream while the server
// pushes in a loop must not run the sink's onClose (which closes the
// channel deliver sends on, as dbwire's Subscribe does) while a deliver
// is in progress. The test hangs up while a deliver lingers before its
// send, so an onClose that does not wait for it closes the channel
// first and the send panics.
func TestPushHangupDuringDelivery(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()
	for round := 0; round < 10; round++ {
		st, err := c.OpenStream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan int, 1)
		armed, delivering := make(chan struct{}), make(chan struct{})
		var once sync.Once
		st.OnPush(
			func() any { return new(testResp) },
			func(v any) {
				select {
				case <-armed:
					once.Do(func() { close(delivering) })
					time.Sleep(2 * time.Millisecond)
				default:
				}
				select {
				case ch <- v.(*testResp).N:
				default:
				}
			},
			func() { close(ch) },
		)
		if err := st.Call(ctx, &testReq{Op: "flood"}, new(testResp)); err != nil {
			t.Fatal(err)
		}
		close(armed)
		<-delivering
		st.Hangup()
		for range ch { // onClose must still close it
		}
	}
}

// TestPushDelivery: pushes flow to the sink, and tearing down the
// stream fires onClose exactly once.
func TestPushDelivery(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	st, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var ticks atomic.Int64
	var closes atomic.Int64
	st.OnPush(
		func() any { return new(testResp) },
		func(v any) {
			if v.(*testResp).Payload == "tick" {
				ticks.Add(1)
			}
		},
		func() { closes.Add(1) },
	)
	if err := st.Call(ctx, &testReq{Op: "subscribe"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for ticks.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d pushes arrived", ticks.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.Stats().Pushes < 3 {
		t.Fatalf("push stat = %d, want >= 3", c.Stats().Pushes)
	}

	st.Hangup()
	st.Hangup() // idempotent
	time.Sleep(50 * time.Millisecond)
	if n := closes.Load(); n != 1 {
		t.Fatalf("onClose fired %d times, want 1", n)
	}
}

// TestStreamPoolReuse: a cleanly closed stream's connection is reused
// by the next OpenStream.
func TestStreamPoolReuse(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	defer c.Close()
	ctx := context.Background()

	st1, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Reused() {
		t.Fatal("first stream claims reuse")
	}
	if err := st1.Call(ctx, &testReq{Op: "count"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2, err := c.OpenStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Reused() {
		t.Fatal("second stream did not come from the pool")
	}
	resp := new(testResp)
	if err := st2.Call(ctx, &testReq{Op: "count"}, resp); err != nil {
		t.Fatal(err)
	}
	if resp.N != 2 {
		t.Fatalf("pooled stream landed on a different connection: count = %d", resp.N)
	}
	st2.Close()
	if d := c.Stats().Dials; d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

func TestClientRejectsAfterClose(t *testing.T) {
	srv := startTestServer(t)
	c := NewClient(srv.Addr())
	if err := c.Call(context.Background(), &testReq{Op: "echo"}, new(testResp)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call(context.Background(), &testReq{Op: "echo"}, new(testResp)); err == nil {
		t.Fatal("call on closed client succeeded")
	}
	if _, err := c.OpenStream(context.Background()); err == nil {
		t.Fatal("stream on closed client succeeded")
	}
}

func TestMergeStats(t *testing.T) {
	a := Stats{RoundTrips: 2, BytesSent: 10, Ops: map[string]OpStats{"x": {Count: 2}}}
	b := Stats{RoundTrips: 3, BytesReceived: 7, Ops: map[string]OpStats{"x": {Count: 1}, "y": {Count: 2}}}
	m := MergeStats(a, b)
	if m.RoundTrips != 5 || m.Bytes() != 17 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	if m.Ops["x"].Count != 3 || m.Ops["y"].Count != 2 {
		t.Fatalf("merge ops wrong: %+v", m.Ops)
	}
}
