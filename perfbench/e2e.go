package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"edgeejb/internal/wire"
)

// probe is the process and shared-path state at one instant; two
// probes bracket a measured window.
type probe struct {
	at         time.Time
	cpu        time.Duration // user + sys
	allocObjs  uint64
	allocBytes uint64
	wire       wire.Stats
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func takeProbe(sys *system) probe {
	p := probe{at: time.Now(), wire: sys.sharedStats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := append([]metrics.Sample(nil), allocSamples...)
	metrics.Read(s)
	p.allocObjs, p.allocBytes = s[0].Value.Uint64(), s[1].Value.Uint64()
	return p
}

// heapPeak samples live heap object bytes until stop is called, which
// returns the largest sample.
func heapPeak() (stop func() uint64) {
	const every = 5 * time.Millisecond
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// subWindows splits each measured window. Throughput, median latency
// and the per-interaction costs are medians over the sub-windows of all
// windows of a run, so a stall on a shared host moves one sub-window
// rather than the result.
const subWindows = 8

// probesAt takes a probe at each instant in a goroutine; wait returns
// them once all are taken.
func probesAt(sys *system, at []time.Time) (wait func() []probe) {
	out := make([]probe, 0, len(at))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, t := range at {
			time.Sleep(time.Until(t))
			out = append(out, takeProbe(sys))
		}
	}()
	return func() []probe {
		<-done
		return out
	}
}

// e2e is the end-to-end summary of one or more measured windows.
type e2e struct {
	attempted, ok int
	rts, bytes    uint64 // on the shared path
	elapsed       time.Duration
	// peak is the median of the windows' live-heap peaks.
	peak float64
	// p99 is the median of the windows' p99s; minBeyondP99 is the fewest
	// samples any window had above its p99.
	p99          float64
	minBeyondP99 int
	// Medians over the sub-windows.
	ixnPerSec, p50, cpuMs, allocs, allocBytes float64
}

// newE2E summarises measured windows. Each window's probes bracket its
// sub-windows; its interactions' completion times count from its first
// probe.
func newE2E(windows ...measured) e2e {
	var r e2e
	var peaks, p99, tput, p50, cpu, allocs, allocBytes []float64
	r.minBeyondP99 = math.MaxInt
	for _, m := range windows {
		first, last := m.probes[0], m.probes[len(m.probes)-1]
		r.attempted += m.t.attempted()
		r.ok += m.t.ok
		r.rts += last.wire.RoundTrips - first.wire.RoundTrips
		r.bytes += last.wire.Bytes() - first.wire.Bytes()
		r.elapsed += last.at.Sub(first.at)
		peaks = append(peaks, float64(m.peak))
		lat := sortedCopy(m.t.latencies())
		w99 := percentile(lat, 0.99)
		p99 = append(p99, w99)
		beyond := 0
		for _, v := range lat {
			if v > w99 {
				beyond++
			}
		}
		r.minBeyondP99 = min(r.minBeyondP99, beyond)

		n := len(m.probes) - 1
		subLat := make([][]float64, n)
		ok := make([]int, n)
		for _, x := range m.t.ixns {
			k := sort.Search(n, func(k int) bool { return m.probes[k+1].at.Sub(first.at) > x.end })
			k = min(k, n-1)
			subLat[k] = append(subLat[k], x.ms)
			if x.ok {
				ok[k]++
			}
		}
		for k := 0; k < n; k++ {
			a, b, att := m.probes[k], m.probes[k+1], float64(len(subLat[k]))
			if att == 0 {
				continue
			}
			tput = append(tput, float64(ok[k])/b.at.Sub(a.at).Seconds())
			sort.Float64s(subLat[k])
			p50 = append(p50, percentile(subLat[k], 0.5))
			cpu = append(cpu, ms(b.cpu-a.cpu)/att)
			allocs = append(allocs, float64(b.allocObjs-a.allocObjs)/att)
			allocBytes = append(allocBytes, float64(b.allocBytes-a.allocBytes)/att)
		}
	}
	r.peak, r.p99 = median(peaks), median(p99)
	r.ixnPerSec, r.p50, r.cpuMs = median(tput), median(p50), median(cpu)
	r.allocs, r.allocBytes = median(allocs), median(allocBytes)
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.999999999)
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func (r e2e) perIxn(v float64) float64 { return v / float64(max(r.attempted, 1)) }
