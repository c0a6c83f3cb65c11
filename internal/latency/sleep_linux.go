package latency

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread in nanosleep(2). Unlike time.Sleep,
// whose wait in the runtime's network poller rounds up to whole
// milliseconds, it returns within the kernel's timer slack of d.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap
}
