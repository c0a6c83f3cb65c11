//go:build unix

package latency

import (
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// BenchmarkProxyDelivery is the delay proxy's ladder rung: 2 concurrent
// echo connections through a 2 ms proxy, one op per round trip (two
// delivered chunks). Besides ns/op it reports the latency.delivery_error
// histogram's p50 and p99 over the timed loop and the process CPU
// (getrusage user+sys, echo server and clients included) per delivered
// chunk: the cost of timing the delay, which is what a spinning proxy
// wastes.
//
//	go test -run '^$' -bench ProxyDelivery -benchtime 4000x ./internal/latency
func BenchmarkProxyDelivery(b *testing.B) {
	const conns = 2
	payload := make([]byte, 64)
	p := NewProxy(startEcho(b), 2*time.Millisecond)
	if err := p.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		for j := 0; j < 20; j++ { // warm up
			if err := echoOnce(c, payload); err != nil {
				b.Fatal(err)
			}
		}
		cs[i] = c
	}

	hist0, cpu0 := obsDeliveryError.Snapshot(), processCPU(b)
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := echoOnce(c, payload); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	cpu := processCPU(b) - cpu0
	hist := obsDeliveryError.Snapshot().Sub(hist0)
	if hist.Count == 0 {
		b.Fatal("no chunk delivered")
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(us(hist.Quantile(0.50)), "err-p50-us")
	b.ReportMetric(us(hist.Quantile(0.99)), "err-p99-us")
	b.ReportMetric(us(cpu)/float64(hist.Count), "cpu-us/chunk")
}

func processCPU(tb testing.TB) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
