// Package latency provides the experiment plumbing the paper calls the
// "delay proxy" (§4.1): a TCP proxy that interposes a configurable
// one-way delay on a designated communication path, transparently to
// both endpoints, plus byte-counting connection wrappers used to measure
// the bandwidth consumed on the shared (high-latency) path (Figure 8).
//
// Each proxy times its delayed deliveries with one scheduler goroutine:
// a min-heap of deadlines, a kernel high-resolution sleep (nanosleep(2),
// not time.Sleep, whose wait rounds up to whole milliseconds) to 150µs
// before the earliest one, then a wake-up of that chunk's writer, which
// spins the last 150µs. A chunk is thus released within tens of
// microseconds of its deadline (latency.delivery_error; in
// BenchmarkProxyDelivery p50 under 1µs, p99 under 100µs on a 2-vCPU
// host), and the proxy burns CPU for 150µs per delayed chunk rather
// than for the whole delay. At zero delay every chunk is already due
// and is written without touching the scheduler.
//
// Beyond the paper, the proxy can inject WAN faults on the same path —
// abrupt connection resets, stalls, partial-frame truncations, and
// blackhole windows — which the fault-tolerance experiments use to
// verify the edge keeps serving under disconnection. Injected faults
// are counted by the latency.fault_* metrics (see OBSERVABILITY.md).
package latency
