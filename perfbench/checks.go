package main

import (
	"errors"
	"fmt"
	"time"

	"edgeejb/internal/memento"
	"edgeejb/internal/obs"
	"edgeejb/internal/sqlstore"
	"edgeejb/internal/trade"
)

// maxReported caps how many failures of one kind a check lists.
const maxReported = 5

// check runs the correctness checks on a quiet system and returns one
// message per violation. okRegisters is every register answered OK on
// this topology (warm-up included). Call it after the metrics are
// taken: reading the edge caches counts as cache hits.
func check(sys *system, w workload, pop trade.PopulateConfig, t tally, okRegisters int) []string {
	var bad []string
	for i, u := range t.unexpected {
		if i == maxReported {
			bad = append(bad, fmt.Sprintf("... and %d more unexpected failures", len(t.unexpected)-i))
			break
		}
		bad = append(bad, "unexpected failure: "+u)
	}

	accounts := 0
	for _, s := range sys.stores {
		accounts += s.RowCount(trade.TableAccount)
	}
	if want := pop.Users + okRegisters; accounts != want {
		bad = append(bad, fmt.Sprintf("account rows: have %d, want %d populated + %d registered", accounts, pop.Users, okRegisters))
	}

	if sys.ring != nil {
		for i, s := range sys.stores {
			if n := s.PreparedCount(); n != 0 {
				bad = append(bad, fmt.Sprintf("shard %d: %d transactions still prepared", i, n))
			}
		}
		if n := obs.Default.Counter("shard.2pc_heuristics").Value(); n > 0 {
			bad = append(bad, fmt.Sprintf("shard.2pc_heuristics = %d", n))
		}
	}

	if w.cached() {
		bad = append(bad, staleEntries(sys, pop)...)
	}
	return bad
}

// staleEntries reports populated keys an edge cache holds at a version
// other than the store's. Invalidations are asynchronous, so a
// violation must persist for a second before it counts.
func staleEntries(sys *system, pop trade.PopulateConfig) []string {
	keys := make([]memento.Key, 0, 1024)
	for _, m := range trade.PopulationRows(pop) {
		keys = append(keys, m.Key)
	}
	var stale []string
	for deadline := time.Now().Add(time.Second); ; time.Sleep(20 * time.Millisecond) {
		stale = stale[:0]
		for e, mgr := range sys.managers {
			for _, k := range keys {
				cached, ok := mgr.CommonStore().Get(k)
				if !ok {
					continue
				}
				store := sys.stores[0]
				if sys.ring != nil {
					store = sys.stores[sys.ring.Of(k)]
				}
				cur, err := store.CurrentVersion(k)
				if err != nil && !errors.Is(err, sqlstore.ErrNotFound) {
					stale = append(stale, fmt.Sprintf("edge %d: %s: %v", e, k, err))
					continue
				}
				if cached.Version != cur {
					stale = append(stale, fmt.Sprintf("edge %d caches %s at version %d, store has %d", e, k, cached.Version, cur))
				}
			}
		}
		if len(stale) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(stale) > maxReported {
		stale = append(stale[:maxReported], fmt.Sprintf("... and %d more stale cache entries", len(stale)-maxReported))
	}
	return stale
}
