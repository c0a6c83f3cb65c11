package wire

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// rawCodec carries a testReq's or testResp's Payload as the raw body,
// so a frame that still held a gob body would not decode.
type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }

func (rawCodec) EncodeBody(dst []byte, body any) ([]byte, error) {
	switch b := body.(type) {
	case *testReq:
		return append(dst, b.Op+":"+b.Payload...), nil
	case *releasingResp:
		return append(dst, b.Payload...), nil
	}
	return nil, fmt.Errorf("rawCodec: %T", body)
}

func (rawCodec) DecodeBody(data []byte, body any) error {
	switch b := body.(type) {
	case *testReq:
		for i, c := range data {
			if c == ':' {
				b.Op, b.Payload = string(data[:i]), string(data[i+1:])
				return nil
			}
		}
		return fmt.Errorf("rawCodec: no op in %q", data)
	case *testResp:
		b.Payload = string(data)
		return nil
	}
	return fmt.Errorf("rawCodec: %T", body)
}

// releasingResp counts its Release calls.
type releasingResp struct {
	testResp
	released *atomic.Int32
}

func (r *releasingResp) Release() { r.released.Add(1) }

type releaseHandler struct{ released *atomic.Int32 }

func (releaseHandler) NewRequest() any { return new(testReq) }

func (h releaseHandler) Handle(_ context.Context, sess *Session, _ uint64, req any) any {
	r := req.(*testReq)
	if r.Op == "hangup" {
		sess.Hangup()
	}
	return &releasingResp{testResp: testResp{Payload: r.Payload}, released: h.released}
}

func (releaseHandler) Close() {}

// TestFixedBodyCodecAndRelease runs a client and server that both start
// with a body codec installed (no handshake), and checks that the
// server releases every response body once its frame is written — and
// also when the write fails.
func TestFixedBodyCodecAndRelease(t *testing.T) {
	var released atomic.Int32
	srv := NewServer(func() ConnHandler { return releaseHandler{released: &released} },
		WithServerBodyCodec(rawCodec{}))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.Addr(), WithBodyCodec(rawCodec{}))
	defer c.Close()
	ctx := context.Background()

	waitReleased := func(want int32) {
		t.Helper()
		deadline := time.Now().Add(time.Second)
		for released.Load() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := released.Load(); got != want {
			t.Fatalf("released %d bodies, want %d", got, want)
		}
	}
	for i := 0; i < 5; i++ {
		var resp testResp
		payload := fmt.Sprintf("page-%d", i)
		if err := c.Call(ctx, &testReq{Op: "echo", Payload: payload}, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Payload != payload {
			t.Fatalf("payload %q, want %q", resp.Payload, payload)
		}
	}
	waitReleased(5)

	var resp testResp
	if err := c.Call(ctx, &testReq{Op: "hangup", Payload: "lost"}, &resp); err == nil {
		t.Fatal("call on a hung-up connection succeeded")
	}
	waitReleased(6)
}
