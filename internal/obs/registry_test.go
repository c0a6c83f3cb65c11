package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not stable across lookups")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("Gauge not stable across lookups")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("Histogram not stable across lookups")
	}
}

// TestRegistrySnapshotConcurrent hammers a registry from many writers
// while snapshots are taken; run under -race this is the data-race
// check, and the final snapshot must account for every write.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 2000

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			_ = snap.Sub(snap)
			var sb strings.Builder
			_ = snap.WriteText(&sb)
		}
	}()
	var writersWG sync.WaitGroup
	for i := 0; i < writers; i++ {
		writersWG.Add(1)
		go func(i int) {
			defer writersWG.Done()
			c := r.Counter("ops")
			g := r.Gauge("level")
			h := r.Histogram("lat")
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}(i)
	}
	writersWG.Wait()
	close(stop)
	reader.Wait()

	snap := r.Snapshot()
	if got := snap.Counters["ops"]; got != writers*perWriter {
		t.Fatalf("ops = %d, want %d", got, writers*perWriter)
	}
	h := snap.Histograms["lat"]
	if h.Count != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", h.Count, writers*perWriter)
	}
}

func TestSnapshotSubDropsIdleMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("busy").Add(3)
	r.Counter("idle").Add(1)
	r.Histogram("h").Observe(time.Millisecond)
	before := r.Snapshot()
	r.Counter("busy").Add(2)
	diff := r.Snapshot().Sub(before)
	if got := diff.Counters["busy"]; got != 2 {
		t.Fatalf("busy = %d, want 2", got)
	}
	if _, ok := diff.Counters["idle"]; ok {
		t.Fatal("idle counter should be dropped from diff")
	}
	if _, ok := diff.Histograms["h"]; ok {
		t.Fatal("idle histogram should be dropped from diff")
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Counter("a.count").Add(1)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat").Observe(3 * time.Millisecond)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"counter a.count 1",
		"counter b.count 7",
		"gauge depth -2",
		"hist lat count=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Counters render sorted.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

// TestRegistryDiffConcurrentWriters hammers every metric kind from
// writer goroutines while a reader repeatedly diffs the registry; run
// under -race this proves Diff takes internally-consistent snapshots,
// and the monotonicity assertions prove diffs never go negative (the
// clamp in Sub) even when writers land between the two sides.
func TestRegistryDiffConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("race.counter")
			g := r.Gauge("race.gauge")
			h := r.Histogram("race.hist")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%100) * time.Microsecond)
				// Churn metric creation too, so Diff races the maps,
				// not just the values.
				r.Counter("race.churn." + strconv.Itoa(w))
			}
		}(w)
	}

	base := r.Snapshot()
	var lastCount uint64
	for i := 0; i < 200; i++ {
		d := r.Diff(base)
		if c := d.Counters["race.counter"]; c < lastCount {
			t.Fatalf("diff went backwards: %d then %d", lastCount, c)
		} else {
			lastCount = c
		}
		if h, ok := d.Histograms["race.hist"]; ok && h.Sum < 0 {
			t.Fatalf("negative histogram sum in diff: %v", h.Sum)
		}
	}
	close(stop)
	wg.Wait()

	// With writers quiesced the diff must account exactly for what
	// happened since base (the writers may have counted before base).
	final := r.Diff(base)
	if want := r.Counter("race.counter").Value() - base.Counters["race.counter"]; final.Counters["race.counter"] != want {
		t.Fatalf("settled diff %d != counter value %d - base %d",
			final.Counters["race.counter"], r.Counter("race.counter").Value(), base.Counters["race.counter"])
	}
}

func TestRegistryNumMetrics(t *testing.T) {
	r := NewRegistry()
	if r.NumMetrics() != 0 {
		t.Fatalf("empty registry NumMetrics = %d", r.NumMetrics())
	}
	r.Counter("a")
	r.Gauge("b")
	r.Histogram("c")
	r.Counter("a") // get, not create
	if got := r.NumMetrics(); got != 3 {
		t.Fatalf("NumMetrics = %d, want 3", got)
	}
}
