package latency

import (
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestSchedulerHeapOrder(t *testing.T) {
	s := newScheduler()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		s.add(wakeup{due: rng.Int63n(1000)})
	}
	prev := int64(-1)
	for len(s.heap) > 0 {
		if d := s.heap[0].due; d < prev {
			t.Fatalf("popped due %d after %d", d, prev)
		} else {
			prev = d
		}
		s.pop()
	}
}

// TestSetDelayDecreaseKeepsByteOrder streams numbered words through a
// proxy and drops the delay from 5ms to 0 mid-stream, while chunks read
// under the old delay are still parked: the receiver must see every
// word, in order.
func TestSetDelayDecreaseKeepsByteOrder(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer c.Close()
		b, _ := io.ReadAll(c)
		got <- b
	}()
	p := NewProxy(ln.Addr().String(), 5*time.Millisecond)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const words, perWrite = 4000, 8
	buf := make([]byte, 2*perWrite)
	for w := 0; w < words; w += perWrite {
		if w == words/2 {
			p.SetDelay(0)
		}
		for i := 0; i < perWrite; i++ {
			binary.BigEndian.PutUint16(buf[2*i:], uint16(w+i))
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Microsecond)
	}
	_ = conn.(*net.TCPConn).CloseWrite()
	var b []byte
	select {
	case b = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not see the end of the stream")
	}
	if len(b) != 2*words {
		t.Fatalf("received %d bytes, want %d", len(b), 2*words)
	}
	for i := 0; i < words; i++ {
		if w := binary.BigEndian.Uint16(b[2*i:]); int(w) != i {
			t.Fatalf("word %d is %d: bytes reordered or lost", i, w)
		}
	}
}

// TestProxyStallIsolatesConnections: a chunk held by an injected stall
// on one connection must not delay deliveries on another connection
// through the same proxy beyond the delay plus 1ms each way.
func TestProxyStallIsolatesConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const delay = 2 * time.Millisecond
	p := NewProxy(startEcho(t), delay)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := []byte("ping")
	var conns [2]net.Conn
	for i := range conns {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for j := 0; j < 5; j++ {
			if err := echoOnce(c, payload); err != nil {
				t.Fatal(err)
			}
		}
		conns[i] = c
	}
	stalled, other := conns[0], conns[1]

	p.SetFaults(&FaultPlan{Seed: 1, StallRate: 1, StallFor: 5 * time.Second})
	if _, err := stalled.Write(payload); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); p.FaultStats().Stalls == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the stall was never injected")
		}
		time.Sleep(time.Millisecond)
	}
	p.SetFaults(nil)

	const n = 21
	rts := make([]time.Duration, n)
	for i := range rts {
		begin := time.Now()
		if err := echoOnce(other, payload); err != nil {
			t.Fatal(err)
		}
		rts[i] = time.Since(begin)
	}
	slices.Sort(rts)
	if med, bound := rts[n/2], 2*(delay+time.Millisecond); med > bound {
		t.Errorf("median round trip beside a stalled connection = %v, want <= %v", med, bound)
	}
	if worst := rts[n-1]; worst > 100*time.Millisecond {
		t.Errorf("worst round trip beside a stalled connection = %v; the stall leaked", worst)
	}
	_ = stalled.SetReadDeadline(time.Now().Add(time.Millisecond))
	if _, err := stalled.Read(make([]byte, 1)); err == nil {
		t.Error("the stalled connection's chunk arrived during the stall")
	}
}

// TestProxyCloseWithParkedChunks: Close with deliveries parked in the
// scheduler returns promptly, and every goroutine the proxy started,
// the scheduler included, exits.
func TestProxyCloseWithParkedChunks(t *testing.T) {
	target := startEcho(t)
	before := runtime.NumGoroutine()
	p := NewProxy(target, time.Second)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte("parked")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		p.sched.mu.Lock()
		parked := len(p.sched.heap)
		p.sched.mu.Unlock()
		if parked > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no chunk parked in the scheduler")
		}
		time.Sleep(time.Millisecond)
	}

	begin := time.Now()
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		if took := time.Since(begin); took > 100*time.Millisecond {
			t.Errorf("Close took %v with chunks parked", took)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with chunks parked")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before Start, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
