package appserver

import (
	"context"
	"testing"

	"edgeejb/internal/trade"
)

// BenchmarkAppserverRoundTrip is the appserver rung of the layer
// ladder: one DoStep (a home page) over loopback against an in-process
// trade service on a local store, with no delay proxy. It covers the
// request and page codec, rendering, the wire round trip and the
// container's read transaction.
func BenchmarkAppserverRoundTrip(b *testing.B) {
	_, client := newAppServer(b)
	ctx := context.Background()
	step := trade.Step{Action: trade.ActionHome, UserID: trade.UserID(0)}
	if _, err := client.DoStep(ctx, step); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.DoStep(ctx, step)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.OK {
			b.Fatal(resp.Err)
		}
	}
}
