//go:build !linux

package latency

import "time"

// sleep falls back to time.Sleep where nanosleep(2) is not exposed;
// deliveries are then up to a millisecond late (delivery_error shows it).
func sleep(d time.Duration) { time.Sleep(d) }
