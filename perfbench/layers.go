package main

import (
	"sort"
	"time"

	"edgeejb/internal/obs"
)

// layerStats is what the spans of one layer add up to over a window.
type layerStats struct {
	calls   int
	total   time.Duration
	self    time.Duration
	durs    []float64 // per-call duration, ms
	excess  []float64 // per-call duration minus 2 × delay minus children, ms
	begins  int
	commits int // commits that succeeded
	commitD []float64
}

// analyse sums the spans per layer. Self time is a span's duration
// minus the union of its child layers' spans of the same trace that
// overlap it; for dbwire calls the excess also takes off the two
// one-way delays of the round trip.
func analyse(spans []span, oneWay time.Duration) [numLayers]layerStats {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].trace != spans[j].trace {
			return spans[i].trace < spans[j].trace
		}
		return spans[i].start < spans[j].start
	})
	var out [numLayers]layerStats
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].trace == spans[lo].trace {
			hi++
		}
		trace := spans[lo:hi]
		for _, s := range trace {
			st := &out[s.layer]
			d := time.Duration(s.end - s.start)
			covered := childCover(trace, s)
			st.calls++
			st.total += d
			st.self += d - covered
			st.durs = append(st.durs, ms(d))
			if s.layer == layerDBWire {
				st.excess = append(st.excess, ms(d-2*oneWay-covered))
			}
			switch s.kind {
			case kindBegin:
				st.begins++
			case kindCommitOK:
				st.commits++
				st.commitD = append(st.commitD, ms(d))
			case kindCommitFailed:
				st.commitD = append(st.commitD, ms(d))
			}
		}
		lo = hi
	}
	return out
}

// childCover returns how much of s's interval the spans of its child
// layers in the same trace cover (overlaps counted once).
func childCover(trace []span, s span) time.Duration {
	var iv [][2]int64
	for _, c := range trace {
		if c.start >= s.end {
			break // sorted by start
		}
		if !isChild(s.layer, c.layer) || c.end <= s.start {
			continue
		}
		iv = append(iv, [2]int64{max(c.start, s.start), min(c.end, s.end)})
	}
	// iv is sorted by start already; merge.
	var covered, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			covered += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	covered += curE - curS
	return time.Duration(covered)
}

func isChild(parent, l layer) bool {
	for _, c := range children[parent] {
		if c == l {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// obsDelta sums obs.Default activity over several windows.
type obsDelta struct {
	counters map[string]uint64
	hists    map[string]obs.HistSnapshot // Count and Sum only
}

func newObsDelta() obsDelta {
	return obsDelta{counters: map[string]uint64{}, hists: map[string]obs.HistSnapshot{}}
}

func (d obsDelta) add(before, after obs.Snapshot) {
	diff := after.Sub(before)
	for name, v := range diff.Counters {
		d.counters[name] += v
	}
	for name, h := range diff.Histograms {
		sum := d.hists[name]
		sum.Count += h.Count
		sum.Sum += h.Sum
		d.hists[name] = sum
	}
}
