package main

import (
	"time"

	"edgeejb/internal/harness"
	"edgeejb/internal/slicache"
	"edgeejb/internal/trade"
)

// Settings shared by every workload. The population is the Trade
// default; two closed-loop clients match the two cores the benchmark
// was sized on.
const (
	clients         = 2
	populateUsers   = 50
	populateSymbols = 100
	holdingsPerUser = 4
	openBalance     = 1_000_000
	// warmupSessions per client fill the edge caches before timing.
	warmupSessions = 30
	// setupRepeats is how many topologies an end-to-end run builds,
	// warms and measures.
	setupRepeats = 3
	// lockTimeout is harness.Build's default, spelled out because the
	// traced assembly builds its stores itself.
	lockTimeout = 5 * time.Second
)

// workload is one deployment plus traffic mix. Why each exists is in
// NOTES.md and BENCHMARK.json.
type workload struct {
	name string
	opts harness.Options
	mix  trade.Mix // zero means trade.DefaultMix
}

var workloads = []workload{
	{
		// The paper's split-server deployment: reads served at the edge
		// from the common store and finder cache; 2 ms one-way delay sits
		// inside the delay proxy's spin window.
		name: "rbes-browse-wan",
		opts: harness.Options{
			Arch:         harness.ESRBES,
			Algo:         harness.AlgCachedEJB,
			OneWayDelay:  2 * time.Millisecond,
			CacheOptions: []slicache.ManagerOption{slicache.WithFinderCache(true)},
		},
	},
	{
		// Nearly every interaction commits: slicache commit path, shard
		// router (fast path or 2PC), backend group commit, sqlstore
		// validation and the invalidation fan-out.
		name: "rbes2-trade-lan",
		opts: harness.Options{
			Arch:         harness.ESRBES,
			Algo:         harness.AlgCachedEJB,
			Shards:       2,
			CacheOptions: []slicache.ManagerOption{slicache.WithFinderCache(true)},
		},
		mix: trade.Mix{Buy: 30, Sell: 25, AccountUpdate: 15, Quote: 10,
			Home: 5, Account: 5, Portfolio: 5, Register: 5},
	},
	{
		// No cache: every statement crosses dbwire to sqlstore under 2PL
		// locks. A cache or proxy change should predict no change here.
		name: "rdb-jdbc-lan",
		opts: harness.Options{
			Arch: harness.ESRDB,
			Algo: harness.AlgJDBC,
		},
		mix: defaultMixWithoutSell(),
	},
}

// defaultMixWithoutSell is trade.DefaultMix with Sell left out. Under
// JDBC, two concurrent sells deadlock: each reads the holdings table
// under a table S lock and then needs IX on it to delete a holding.
// The victim retries, and now and then loses three times in a row and
// fails with "giving up after 3 conflicting attempts" (see NOTES.md).
func defaultMixWithoutSell() trade.Mix {
	m := trade.DefaultMix()
	m.Sell = 0
	return m
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the harness options of w for a population seed, with
// the tradebench defaults: binary codec and batching on (the finder
// cache, also a tradebench default, is in the cached workloads' opts).
func (w workload) options(seed int64) harness.Options {
	o := w.opts
	o.Codec = "binary"
	o.Batch = true
	o.LockTimeout = lockTimeout
	o.Populate = trade.PopulateConfig{
		Seed:            seed,
		Users:           populateUsers,
		Symbols:         populateSymbols,
		HoldingsPerUser: holdingsPerUser,
		OpenBalance:     openBalance,
	}
	return o
}

func (w workload) cached() bool { return w.opts.Algo == harness.AlgCachedEJB }

func (w workload) generator(seed int64) *trade.Generator {
	return trade.NewGenerator(trade.GeneratorConfig{
		Seed:    seed,
		Users:   populateUsers,
		Symbols: populateSymbols,
		Mix:     w.mix,
	})
}
