package latency

import (
	"sync"
	"time"
)

const (
	// lead is how long before a chunk's deadline the scheduler wakes the
	// chunk's writer, which spins the rest of the way. It covers the
	// kernel sleep's overshoot (Linux timer slack is 50µs by default)
	// plus the time the woken writer takes to get scheduled; the
	// latency.delivery_error histogram of BenchmarkProxyDelivery sized
	// it (see EXPERIMENTS.md).
	lead = 150 * time.Microsecond
	// maxNap caps one kernel sleep, so the scheduler notices within
	// that long a deadline earlier than the one it sleeps toward (after
	// SetDelay lowered the delay) or the proxy closing.
	maxNap = time.Millisecond
)

// wakeup is one parked delivery: its deadline and its writer's wake
// channel (buffered 1).
type wakeup struct {
	due  int64 // nanoseconds since the scheduler's epoch
	wake chan struct{}
}

// scheduler times every delayed delivery of one proxy: a min-heap of
// deadlines served by a single goroutine that sleeps in the kernel's
// high-resolution sleep until the earliest deadline minus lead, then
// wakes that chunk's writer. Writers stay per connection direction, so
// a stalled connection never holds up another's deliveries; only the
// timing is shared.
type scheduler struct {
	epoch time.Time
	kick  chan struct{} // buffered 1: the heap became non-empty

	mu   sync.Mutex
	heap []wakeup
}

func newScheduler() *scheduler {
	return &scheduler{epoch: time.Now(), kick: make(chan struct{}, 1)}
}

// now is the scheduler's monotonic clock, in nanoseconds.
func (s *scheduler) now() int64 { return int64(time.Since(s.epoch)) }

// add parks w until its deadline is within lead; the scheduler then
// sends on w.wake.
func (s *scheduler) add(w wakeup) {
	s.mu.Lock()
	s.heap = append(s.heap, w)
	s.up(len(s.heap) - 1)
	first := len(s.heap) == 1
	s.mu.Unlock()
	if first {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// run is the scheduler goroutine; it returns when done closes.
func (s *scheduler) run(done <-chan struct{}) {
	for {
		s.mu.Lock()
		now := s.now()
		for len(s.heap) > 0 && s.heap[0].due-int64(lead) <= now {
			s.heap[0].wake <- struct{}{} // never blocks: one wakeup per writer
			s.pop()
		}
		nap := time.Duration(-1)
		if len(s.heap) > 0 {
			nap = min(time.Duration(s.heap[0].due-now)-lead, maxNap)
		}
		s.mu.Unlock()
		if nap < 0 {
			select {
			case <-s.kick:
				continue
			case <-done:
				return
			}
		}
		select {
		case <-done:
			return
		default:
		}
		sleep(nap)
	}
}

func (s *scheduler) up(i int) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].due <= h[i].due {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// pop removes the earliest wakeup.
func (s *scheduler) pop() {
	h := s.heap
	last := len(h) - 1
	h[0] = h[last]
	h[last] = wakeup{}
	h = h[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].due < h[small].due {
			small = l
		}
		if r < len(h) && h[r].due < h[small].due {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.heap = h
}
