package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgeejb/internal/appserver"
	"edgeejb/internal/harness"
	"edgeejb/internal/obs"
	"edgeejb/internal/shard"
	"edgeejb/internal/slicache"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/trade"
	"edgeejb/internal/wire"
)

// system is a running topology as the load loops and the checks see it:
// either harness.Build's, or the traced assembly of assemble.go.
type system struct {
	newClient   func() *appserver.Client
	sharedStats func() wire.Stats
	stores      []*sqlstore.Store
	ring        *shard.Ring         // nil when unsharded
	managers    []*slicache.Manager // empty when uncached
	close       func()
}

func fromTopology(t *harness.Topology) *system {
	s := &system{
		newClient:   t.NewWebClient,
		sharedStats: t.SharedPathStats,
		stores:      t.Stores,
		ring:        t.Ring,
		close:       t.Close,
	}
	if len(s.stores) == 0 {
		s.stores = []*sqlstore.Store{t.Store}
	}
	for _, m := range t.Managers {
		if m != nil {
			s.managers = append(s.managers, m)
		}
	}
	return s
}

// ixn is one attempted interaction.
type ixn struct {
	end time.Duration // completion, since the loop's base instant
	ms  float64       // DoStep latency
	ok  bool
}

// tally is what one or more closed-loop clients observed.
type tally struct {
	ixns      []ixn
	ok        int
	failed    int
	registers int // registers answered OK: each adds one account row
	// unexpected holds failures that fail the run: transport errors,
	// failures other than exhausted conflict retries, empty pages.
	unexpected []string
	// gaveUp holds the first maxReported exhausted conflict retries,
	// which count as failed without failing the run.
	gaveUp []string
}

func (t *tally) attempted() int { return len(t.ixns) }

func (t *tally) latencies() []float64 {
	v := make([]float64, len(t.ixns))
	for i, x := range t.ixns {
		v[i] = x.ms
	}
	return v
}

func (t *tally) add(o tally) {
	t.ixns = append(t.ixns, o.ixns...)
	t.ok += o.ok
	t.failed += o.failed
	t.registers += o.registers
	t.unexpected = append(t.unexpected, o.unexpected...)
	t.gaveUp = append(t.gaveUp, o.gaveUp...)
}

// allowedFailure is the one failure that counts as failed rather than
// failing a check: an optimistic transaction that kept conflicting
// (component.ExecuteRetry). With each client on users of its own
// (ownUser), the workloads are not expected to produce it.
const allowedFailure = "giving up after"

// loop drives one closed-loop client: each step waits for its page. It
// stops after sessions sessions (when > 0) or at the first step that
// would start after deadline (when non-zero).
type loop struct {
	client   *appserver.Client
	gen      *trade.Generator
	tag      string // prefix that makes register IDs unique to this loop
	share    int    // this loop drives the users whose number is share mod shares
	shares   int
	sessions int
	base     time.Time // completion times are taken from here
	deadline time.Time
	rec      *recorder // non-nil: give every interaction a trace ID and span
}

func (l *loop) run(ctx context.Context) tally {
	var t tally
	for s := 0; l.sessions <= 0 || s < l.sessions; s++ {
		for _, step := range l.gen.Session() {
			if !l.deadline.IsZero() && !time.Now().Before(l.deadline) {
				return t
			}
			ownUser(&step, l.share, l.shares)
			uniqueRegister(&step, l.tag)
			l.do(ctx, step, &t)
		}
	}
	return t
}

func (l *loop) do(ctx context.Context, step trade.Step, t *tally) {
	sctx := ctx
	if l.rec != nil {
		sctx = obs.WithTrace(ctx, obs.NewTraceID())
	}
	start := time.Now()
	resp, err := l.client.DoStep(sctx, step)
	d := time.Since(start)
	if l.rec != nil {
		l.rec.add(sctx, layerApp, kindCall, start, d)
	}
	ok := t.judge(step, resp, err)
	t.ixns = append(t.ixns, ixn{end: time.Since(l.base), ms: float64(d) / float64(time.Millisecond), ok: ok})
}

// judge counts one interaction's outcome and reports whether it
// succeeded.
func (t *tally) judge(step trade.Step, resp *appserver.Response, err error) bool {
	switch {
	case err != nil:
		t.unexpected = append(t.unexpected, fmt.Sprintf("%s: transport error: %v", step.Action, err))
	case !resp.OK:
		msg := fmt.Sprintf("%s: %s", step.Action, resp.Err)
		switch {
		case !strings.Contains(resp.Err, allowedFailure):
			t.unexpected = append(t.unexpected, msg)
		case len(t.gaveUp) < maxReported:
			t.gaveUp = append(t.gaveUp, msg)
		}
	case len(resp.Body) == 0:
		t.unexpected = append(t.unexpected, fmt.Sprintf("%s: OK response with an empty page", step.Action))
	default:
		t.ok++
		if step.Action == trade.ActionRegister {
			t.registers++
		}
		return true
	}
	t.failed++
	return false
}

// uniqueRegister makes a register step's new user ID unique to the
// loop. trade.Generator numbers new users new-1, new-2, ... per
// instance, so two clients (or a warm-up and the measured phase) would
// otherwise register the same IDs and fail with "row already exists".
func uniqueRegister(step *trade.Step, tag string) {
	if step.Action != trade.ActionRegister {
		return
	}
	id := tag + step.NewUserID
	step.NewUserID, step.FullName, step.Email = id, "New User "+id, id+"@example.test"
}

// ownUser moves a step onto the loop's share of the populated users:
// of shares loops, loop share drives only the users whose number is
// share modulo shares. Every row a step writes belongs to its user, so
// no two loops write the same row and no optimistic commit conflicts
// with another client's; an interaction then fails only if the system
// does. A session's steps all carry one user, so it stays one user.
func ownUser(step *trade.Step, share, shares int) {
	n, err := strconv.Atoi(strings.TrimPrefix(step.UserID, "uid-"))
	if err != nil || shares < 2 {
		return
	}
	n += share - n%shares
	if n >= populateUsers {
		n -= shares
	}
	step.UserID = trade.UserID(n)
}

// runLoops runs the loops concurrently, closes their clients and merges
// what they saw. With labelled set, each client goroutine carries the
// pprof label layer=loadgen.
func runLoops(ctx context.Context, loops []*loop, labelled bool) tally {
	out := make([]tally, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func(i int, l *loop) {
			defer wg.Done()
			if labelled {
				pprof.Do(ctx, pprof.Labels("layer", "loadgen"), func(ctx context.Context) { out[i] = l.run(ctx) })
				return
			}
			out[i] = l.run(ctx)
		}(i, l)
	}
	wg.Wait()
	var t tally
	for i, o := range out {
		_ = loops[i].client.Close() // a client's close error changes nothing measured
		t.add(o)
	}
	return t
}

// clientLoops makes one loop per generator, each with its own client;
// phase distinguishes the register IDs of warm-up and measurement on
// one topology.
func clientLoops(sys *system, gens []*trade.Generator, phase string) []*loop {
	loops := make([]*loop, len(gens))
	for i := range loops {
		loops[i] = &loop{client: sys.newClient(), gen: gens[i], tag: fmt.Sprintf("%s%d-", phase, i),
			share: i, shares: len(gens)}
	}
	return loops
}

func sessionLoops(loops []*loop, sessions int) []*loop {
	for _, l := range loops {
		l.sessions = sessions
	}
	return loops
}

// clientGenerators gives each of n clients on a run's topology-th
// topology its own generator, derived from seed, so the topologies of
// one run replay different sessions.
func clientGenerators(w workload, seed int64, topology, n int) []*trade.Generator {
	gens := make([]*trade.Generator, n)
	for i := range gens {
		gens[i] = w.generator(seed*64 + int64(topology*16+i))
	}
	return gens
}

// waitQuiet waits until the shared path has carried nothing new for a
// few polls, so invalidation pushes have arrived before the checks look
// at the edge caches and before teardown.
func waitQuiet(sys *system) {
	const poll, quietPolls, limit = 10 * time.Millisecond, 5, 3 * time.Second
	last := sys.sharedStats()
	quiet := 0
	for start := time.Now(); time.Since(start) < limit && quiet < quietPolls; {
		time.Sleep(poll)
		cur := sys.sharedStats()
		if cur.RoundTrips == last.RoundTrips && cur.Pushes == last.Pushes && cur.Bytes() == last.Bytes() {
			quiet++
		} else {
			quiet = 0
		}
		last = cur
	}
}
