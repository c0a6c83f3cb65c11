package main

import (
	"context"
	"fmt"
	"time"

	"edgeejb/internal/harness"
)

// The self-test drives one client through a fixed session sequence
// twice on the traced assembly and once on harness.Build's topology:
// the assembly without trace IDs must carry exactly the same
// shared-path round trips and bytes as harness.Build's (the wrappers
// changed nothing), and the traced assembly the same round trips
// (trace IDs add header bytes but no round trips). The traced pass
// against harness.Build's gives the tracing overhead.
//
// harness.Build's own traffic is not fully deterministic: in about one
// pass in ten an own-commit notice races the commit reply and costs an
// extra AutoGet, or a few frame-header bytes differ. So a round runs
// all three passes, and the test passes as soon as some assembly pass
// matched some harness pass exactly, in up to selfTestRounds rounds. A
// wrapper that changes batching or 2PC changes every pass and never
// matches.
const (
	selfTestSeed     = 1
	selfTestWarmup   = 5
	selfTestSessions = 25
	selfTestRounds   = 4
)

type selfPass struct {
	rts, bytes uint64
	ok         int
	elapsed    time.Duration
	p50        float64
}

func (p selfPass) ixnPerSec() float64 { return float64(p.ok) / p.elapsed.Seconds() }

func runSelfPass(w workload, build func() (*system, error), rec *recorder) (selfPass, []string, error) {
	sys, err := build()
	if err != nil {
		return selfPass{}, nil, err
	}
	defer sys.close()
	ctx := context.Background()
	gens := clientGenerators(w, selfTestSeed, 0, 1)
	warm := runLoops(ctx, sessionLoops(clientLoops(sys, gens, "w"), selfTestWarmup), false)
	waitQuiet(sys)

	before := sys.sharedStats()
	loops := sessionLoops(clientLoops(sys, gens, "m"), selfTestSessions)
	if rec != nil {
		loops[0].rec = rec
		rec.on.Store(true)
	}
	start := time.Now()
	t := runLoops(ctx, loops, false)
	elapsed := time.Since(start)
	if rec != nil {
		rec.on.Store(false)
	}
	waitQuiet(sys)
	after := sys.sharedStats()

	t.unexpected = append(t.unexpected, warm.unexpected...)
	problems := check(sys, w, w.options(selfTestSeed).Populate, t, warm.registers+t.registers)
	return selfPass{
		rts:     after.RoundTrips - before.RoundTrips,
		bytes:   after.Bytes() - before.Bytes(),
		ok:      t.ok,
		elapsed: elapsed,
		p50:     percentile(sortedCopy(t.latencies()), 0.5),
	}, problems, nil
}

// selfTest returns the first round's traced pass's overhead against
// its harness.Build pass (throughput lost, p50 latency added, as
// fractions), the rounds it took, and every violation it found.
func selfTest(w workload) (tputLoss, p50Gain float64, rounds int, problems []string, err error) {
	opts := w.options(selfTestSeed)
	harnessBuild := func() (*system, error) {
		t, err := harness.Build(opts)
		if err != nil {
			return nil, err
		}
		return fromTopology(t), nil
	}
	assembled := func(r *recorder) func() (*system, error) {
		return func() (*system, error) { return assemble(opts, r) }
	}
	type traffic struct{ rts, bytes uint64 }
	refs, plains := map[traffic]bool{}, map[traffic]bool{}
	refRTs, tracedRTs := map[uint64]bool{}, map[uint64]bool{}
	matched := func() (bool, bool) {
		exact, rts := false, false
		for t := range plains {
			exact = exact || refs[t]
		}
		for r := range tracedRTs {
			rts = rts || refRTs[r]
		}
		return exact, rts
	}
	for rounds = 1; rounds <= selfTestRounds; rounds++ {
		// The plain pass goes first: the first topology a process builds
		// pays one-time costs that would skew the ref-traced comparison.
		// Its recorder is never switched on: the wrappers only time.
		plain, p2, err := runSelfPass(w, assembled(newRecorder()), nil)
		if err != nil {
			return 0, 0, rounds, nil, fmt.Errorf("self-test assembly pass: %w", err)
		}
		ref, p1, err := runSelfPass(w, harnessBuild, nil)
		if err != nil {
			return 0, 0, rounds, nil, fmt.Errorf("self-test harness pass: %w", err)
		}
		rec := newRecorder()
		traced, p3, err := runSelfPass(w, assembled(rec), rec)
		if err != nil {
			return 0, 0, rounds, nil, fmt.Errorf("self-test traced pass: %w", err)
		}
		problems = append(append(append(problems, p1...), p2...), p3...)
		if rounds == 1 {
			tputLoss, p50Gain = 1-traced.ixnPerSec()/ref.ixnPerSec(), traced.p50/ref.p50-1
		}
		refs[traffic{ref.rts, ref.bytes}], plains[traffic{plain.rts, plain.bytes}] = true, true
		refRTs[ref.rts], tracedRTs[traced.rts] = true, true
		if exact, rts := matched(); exact && rts {
			return tputLoss, p50Gain, rounds, problems, nil
		}
	}
	problems = append(problems, fmt.Sprintf(
		"wrapper fidelity: in %d rounds no assembly pass matched harness.Build's shared-path traffic: harness (round trips, bytes) %v, assembly %v; harness round trips %v, traced assembly %v",
		selfTestRounds, keys(refs), keys(plains), keys(refRTs), keys(tracedRTs)))
	return tputLoss, p50Gain, selfTestRounds, problems, nil
}

func keys[K comparable](m map[K]bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
