// Command perfbench is the repository's benchmark: it builds one Trade
// workload's topology, drives it closed-loop with two clients for a
// fixed time, checks the outputs and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// --trace 0 measures the end-to-end metrics on harness.Build's
// topology. --trace 1 measures the per-layer metrics on a traced
// re-assembly of the same topology (assemble.go), after a self-test
// that the assembly carries exactly what harness.Build's does. See
// NOTES.md for the workloads, metrics and known defects.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"edgeejb/internal/harness"
	"edgeejb/internal/obs"
	"edgeejb/internal/trade"
)

// outDir holds what a traced run leaves behind (CPU profile, span
// dump), relative to the directory the benchmark runs in.
const outDir = ".bench_build"

// watchdogSlack is how long set-up, checks and teardown may take on top
// of the measured window before the run is declared hung.
const watchdogSlack = 150 * time.Second

type metric struct {
	name, unit string
	value      float64
}

type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string // printed with the metric table
	problems          []string // correctness violations: the run fails
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", names)
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	// A hung system must not hang the benchmark: past the budget, dump
	// every goroutine's stack and fail.
	watchdog := time.AfterFunc(window+watchdogSlack, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: still running after %v; goroutines:\n", w.name, window+watchdogSlack)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(1)
	})
	defer watchdog.Stop()

	var res result
	var err error
	if *trace == 0 {
		res, err = endToEnd(w, *seed, window)
	} else {
		res, err = traced(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(w, *seed, *trace, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// setup is a built and warmed topology.
type setup struct {
	sys     *system
	gens    []*trade.Generator // the clients' generators, past the warm-up
	warm    tally
	seconds float64 // build + warm-up time
}

// setUp builds and warms a run's topology-th topology, timing both.
func setUp(w workload, seed int64, topology int, labelled bool, build func() (*system, error)) (*setup, error) {
	start := time.Now()
	sys, err := build()
	if err != nil {
		return nil, err
	}
	st := &setup{sys: sys, gens: clientGenerators(w, seed, topology, clients)}
	st.warm = runLoops(context.Background(), sessionLoops(clientLoops(sys, st.gens, "w"), warmupSessions), labelled)
	waitQuiet(sys)
	st.seconds = time.Since(start).Seconds()
	return st, nil
}

// measured is one measured window.
type measured struct {
	t      tally
	probes []probe // window start, sub-window boundaries, window end
	peak   uint64
}

// measure drives the clients until the window ends. With rec set, every
// interaction gets a trace ID and the client goroutines a pprof label.
func measure(st *setup, window time.Duration, rec *recorder) measured {
	loops := clientLoops(st.sys, st.gens, "m")
	runtime.GC()
	before := takeProbe(st.sys)
	bounds := make([]time.Time, subWindows-1)
	for k := range bounds {
		bounds[k] = before.at.Add(window * time.Duration(k+1) / subWindows)
	}
	for _, l := range loops {
		l.base, l.deadline, l.rec = before.at, before.at.Add(window), rec
	}
	stopPeak := heapPeak()
	waitProbes := probesAt(st.sys, bounds)
	t := runLoops(context.Background(), loops, rec != nil)
	after := takeProbe(st.sys)
	probes := append(append([]probe{before}, waitProbes()...), after)
	return measured{t: t, probes: probes, peak: stopPeak()}
}

// finish lets the system go quiet, checks it and tears it down.
func finish(st *setup, w workload, opts harness.Options, m measured) []string {
	waitQuiet(st.sys)
	t := m.t
	t.unexpected = append(append([]string(nil), st.warm.unexpected...), t.unexpected...)
	problems := check(st.sys, w, opts.Populate, t, st.warm.registers+t.registers)
	st.sys.close()
	return problems
}

// runs is what measuring setupRepeats topologies yields.
type runs struct {
	windows  []measured
	setups   []float64 // each topology's build + warm-up time
	problems []string
	counters obsDelta // obs.Default activity in the windows
	profiles []string // traced only: one CPU profile per window
}

// measureTopologies sets up a topology setupRepeats times and measures
// each for an equal share of the window. A fresh topology per share
// keeps the Trade state (holdings grow with every buy) from drifting
// far within a run. With rec set, the windows are traced and profiled.
func measureTopologies(w workload, seed int64, window time.Duration, build func() (*system, error), rec *recorder) (runs, error) {
	opts := w.options(seed)
	r := runs{counters: newObsDelta()}
	for i := 0; i < setupRepeats; i++ {
		st, err := setUp(w, seed, i, rec != nil, build)
		if err != nil {
			return r, err
		}
		var stopProfile func() error
		if rec != nil {
			path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, i))
			if stopProfile, err = startCPUProfile(path); err != nil {
				st.sys.close()
				return r, fmt.Errorf("cpu profile: %w", err)
			}
			r.profiles = append(r.profiles, path)
			rec.on.Store(true)
		}
		before := obs.Default.Snapshot()
		m := measure(st, window/setupRepeats, rec)
		r.counters.add(before, obs.Default.Snapshot())
		if rec != nil {
			rec.on.Store(false)
			if err := stopProfile(); err != nil {
				st.sys.close()
				return r, fmt.Errorf("cpu profile: %w", err)
			}
		}
		r.problems = append(r.problems, finish(st, w, opts, m)...)
		r.windows = append(r.windows, m)
		r.setups = append(r.setups, st.seconds)
	}
	return r, nil
}

func endToEnd(w workload, seed int64, window time.Duration) (result, error) {
	opts := w.options(seed)
	runs, err := measureTopologies(w, seed, window, func() (*system, error) {
		t, err := harness.Build(opts)
		if err != nil {
			return nil, err
		}
		return fromTopology(t), nil
	}, nil)
	if err != nil {
		return result{}, err
	}

	r := newE2E(runs.windows...)
	c := runs.counters.counters
	res := result{attempted: r.attempted, failed: r.attempted - r.ok, problems: runs.problems}
	res.add("ixn_per_s", "ixn/s", r.ixnPerSec)
	res.add("ixn_p50_ms", "ms", r.p50)
	res.add("ixn_p99_ms", "ms", r.p99)
	res.add("ok_ratio", "ratio", r.perIxn(float64(r.ok)))
	res.add("shared_rts_per_ixn", "rt/ixn", r.perIxn(float64(r.rts)))
	res.add("shared_bytes_per_ixn", "B/ixn", r.perIxn(float64(r.bytes)))
	res.add("cpu_ms_per_ixn", "ms/ixn", r.cpuMs)
	res.add("allocs_per_ixn", "obj/ixn", r.allocs)
	res.add("alloc_bytes_per_ixn", "B/ixn", r.allocBytes)
	res.add("heap_peak_mb", "MB", r.peak/1e6)
	res.add("setup_s", "s", median(runs.setups))
	res.notes = append(res.notes,
		fmt.Sprintf("latency samples: %d over %d topologies (%.3f s); p99 and heap peak are medians over the topologies (each p99 with at least %d samples above it); ixn_per_s, p50, cpu and allocs are medians over %d sub-windows",
			r.attempted, setupRepeats, r.elapsed.Seconds(), r.minBeyondP99, setupRepeats*subWindows),
		fmt.Sprintf("setup_s: median of %d x (build + %d warm-up sessions per client)", setupRepeats, warmupSessions),
		fmt.Sprintf("in the windows: %d optimistic conflicts at the edge caches, %d at the stores; %d lock deadlocks, %d lock timeouts",
			c["slicache.conflicts"], c["sqlstore.opt_conflicts"], c["lockmgr.deadlocks"], c["lockmgr.timeouts"]))
	for _, m := range runs.windows {
		for _, f := range m.t.gaveUp {
			res.notes = append(res.notes, "failed: "+f)
		}
	}
	return res, nil
}

func traced(w workload, seed int64, window time.Duration) (result, error) {
	tputLoss, p50Gain, rounds, problems, err := selfTest(w)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	opts := w.options(seed)
	rec := newRecorder()
	runs, err := measureTopologies(w, seed, window, func() (*system, error) { return assemble(opts, rec) }, rec)
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(runs.profiles...)
	if err != nil {
		return result{}, err
	}
	spansPath := filepath.Join(outDir, "spans-"+w.name+".csv")
	if err := writeSpans(spansPath, rec.spans); err != nil {
		return result{}, err
	}

	r := newE2E(runs.windows...)
	res := result{attempted: r.attempted, failed: r.attempted - r.ok, problems: append(problems, runs.problems...)}
	layerMetrics(&res, w, analyse(rec.spans, opts.OneWayDelay), runs.counters, float64(max(r.attempted, 1)))
	for _, l := range append(cpuLabels, "unlabelled") {
		res.add("cpu_share."+l, "ratio", shares[l])
	}
	res.add("traced.ixn_per_s", "ixn/s", r.ixnPerSec)
	res.add("traced.ixn_p50_ms", "ms", r.p50)
	res.add("selftest.ixn_per_s_overhead", "ratio", tputLoss)
	res.add("selftest.ixn_p50_overhead", "ratio", p50Gain)
	res.notes = append(res.notes,
		fmt.Sprintf("%d spans over %d interactions written to %s; CPU profiles in %s/cpu-%s-*.pprof",
			len(rec.spans), r.attempted, spansPath, outDir, w.name),
		fmt.Sprintf("self-test: 1 client, seed 1, %d round(s); the assembly reproduced harness.Build's shared-path round trips and bytes unless a check failed", rounds))
	return res, nil
}

// layerMetrics adds the per-layer metrics: span sums from the traced
// wrappers, counters from obs.Default. Layers absent from a workload
// read 0.
func layerMetrics(res *result, w workload, ls [numLayers]layerStats, d obsDelta, n float64) {
	per := func(d time.Duration) float64 { return ms(d) / n }
	p50 := func(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }
	c := func(name string) float64 { return float64(d.counters[name]) }
	histMean := func(name string) float64 {
		h := d.hists[name]
		return ratio(float64(h.Sum), float64(h.Count))
	}

	rm := ls[layerRM]
	var sliSelf, commitP50, begins, commitOK, compSelf float64
	if w.cached() {
		sliSelf, commitP50 = per(rm.self), p50(rm.commitD)
		begins, commitOK = float64(rm.begins)/n, ratio(float64(rm.commits), float64(rm.begins))
	} else {
		compSelf = per(rm.self)
	}
	res.add("appserver.self_ms_per_ixn", "ms/ixn", per(ls[layerApp].self))
	res.add("slicache.self_ms_per_ixn", "ms/ixn", sliSelf)
	res.add("slicache.commit_ms_p50", "ms/commit", commitP50)
	res.add("slicache.begins_per_ixn", "begins/ixn", begins)
	res.add("slicache.commit_ok_ratio", "ratio", commitOK)
	res.add("slicache.hit_ratio", "ratio", ratio(c("slicache.hits"), c("slicache.hits")+c("slicache.misses")))
	res.add("slicache.finder_hit_ratio", "ratio",
		ratio(c("slicache.finder_hits"), c("slicache.finder_hits")+c("slicache.finder_misses")))
	res.add("component.self_ms_per_ixn", "ms/ixn", compSelf)

	db := ls[layerDBWire]
	res.add("dbwire.calls_per_ixn", "calls/ixn", float64(db.calls)/n)
	res.add("dbwire.ms_per_ixn", "ms/ixn", per(db.total))
	res.add("dbwire.excess_ms_p50", "ms/call", p50(db.excess))

	res.add("backend.db_ms_per_ixn", "ms/ixn", per(ls[layerBackend].total))
	res.add("backend.group_commit_size_mean", "sets/group", histMean("backend.group_commit_size"))

	twoPC := c("shard.2pc_commits")
	res.add("shard.self_ms_per_ixn", "ms/ixn", per(ls[layerShard].self))
	res.add("shard.twopc_ratio", "ratio", ratio(twoPC, c("shard.fastpath_commits")+c("shard.readonly_commits")+twoPC))
	res.add("shard.participants_mean", "shards/commit", histMean("shard.participants"))

	sql := ls[layerSQL]
	res.add("sqlstore.ms_per_ixn", "ms/ixn", per(sql.total))
	res.add("sqlstore.calls_per_ixn", "calls/ixn", float64(sql.calls)/n)
	res.add("sqlstore.apply_us_p50", "us/call", 1000*p50(sql.durs))
	res.add("sqlstore.conflict_ratio", "ratio",
		ratio(c("sqlstore.opt_conflicts")+c("sqlstore.lock_timeouts"),
			c("sqlstore.opt_commits")+c("sqlstore.opt_conflicts")+c("sqlstore.tx_commits")+c("sqlstore.tx_aborts")))
	res.add("lockmgr.wait_ms_per_ixn", "ms/ixn", per(d.hists["lockmgr.wait"].Sum))
	res.add("lockmgr.waits_per_kixn", "waits/kixn", 1000*c("lockmgr.waits")/n)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "trace,layer,kind,start_ns,dur_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d\n", s.trace, s.layer, s.kind, s.start, s.end-s.start)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// report prints the metric table, the notes and any problems, then the
// JSON result as the last line of standard output.
func report(w workload, seed int64, trace int, res result) error {
	fmt.Printf("perfbench %s seed=%d trace=%d: %d interactions attempted, %d failed\n",
		w.name, seed, trace, res.attempted, res.failed)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Printf("  %-32s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	for _, n := range res.notes {
		fmt.Printf("note: %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
		fmt.Fprintf(os.Stderr, "perfbench: failed check: %s\n", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
