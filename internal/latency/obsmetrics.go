package latency

import "edgeejb/internal/obs"

// Process-wide obs mirrors of the delay proxy's traffic and injected
// faults, summed across every Proxy in the process. The per-proxy
// counters remain the chaos tests' source of truth; these feed /metrics
// on delayproxy. Names are documented in OBSERVABILITY.md.
var (
	obsProxyConns            = obs.Default.Counter("latency.proxy_conns")
	obsFaultResets           = obs.Default.Counter("latency.fault_resets")
	obsFaultStalls           = obs.Default.Counter("latency.fault_stalls")
	obsFaultTruncations      = obs.Default.Counter("latency.fault_truncations")
	obsFaultBlackholedConns  = obs.Default.Counter("latency.fault_blackholed_conns")
	obsFaultBlackholedChunks = obs.Default.Counter("latency.fault_blackholed_chunks")
	obsDeliveryError         = obs.Default.Histogram("latency.delivery_error")
)
