package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLabels are the pprof layer labels the traced run sets: one per
// server Start call in assemble.go plus the benchmark's clients. Samples
// without a label (main goroutine, runtime background work such as GC
// workers) are "unlabelled".
var cpuLabels = []string{"latency", "dbwire", "backend", "slicache", "appserver", "loadgen"}

// startCPUProfile profiles the process into path until the returned
// stop is called.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

var (
	totalRE  = regexp.MustCompile(`Total samples = ([0-9.]+[a-z]+)`)
	headerRE = regexp.MustCompile(`^\s*(\S+): Total`)
	tagRE    = regexp.MustCompile(`^\s*([0-9.]+[a-z]+) \(\s*[0-9.]+%\): (\S+)\s*$`)
)

// cpuShares reads profiles back with `go tool pprof` and returns each
// layer label's share of all their CPU samples, "unlabelled" included.
func cpuShares(profiles ...string) (map[string]float64, error) {
	var total, labelled time.Duration
	byLabel := map[string]time.Duration{}
	for _, profile := range profiles {
		top, err := pprofText("-top", profile)
		if err != nil {
			return nil, err
		}
		m := totalRE.FindStringSubmatch(top)
		if m == nil {
			return nil, fmt.Errorf("pprof -top %s: no sample total in %q", profile, firstLine(top))
		}
		t, err := parsePprofDur(m[1])
		if err != nil {
			return nil, fmt.Errorf("pprof -top %s: sample total %q: %v", profile, m[1], err)
		}
		total += t
		tags, err := pprofText("-tags", profile)
		if err != nil {
			return nil, err
		}
		inLayer := false
		for _, line := range strings.Split(tags, "\n") {
			if h := headerRE.FindStringSubmatch(line); h != nil {
				inLayer = h[1] == "layer"
				continue
			}
			if m := tagRE.FindStringSubmatch(line); inLayer && m != nil {
				d, err := parsePprofDur(m[1])
				if err != nil {
					return nil, fmt.Errorf("pprof -tags %s: %q: %v", profile, line, err)
				}
				byLabel[m[2]] += d
				labelled += d
			}
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("CPU profiles %v hold no samples", profiles)
	}
	shares := map[string]float64{"unlabelled": float64(total-labelled) / float64(total)}
	for _, l := range cpuLabels {
		shares[l] = float64(byLabel[l]) / float64(total)
	}
	return shares, nil
}

func pprofText(report, profile string) (string, error) {
	// -unit=ms prints sample totals in full; the default unit rounds
	// them to two significant digits.
	out, err := exec.Command("go", "tool", "pprof", report, "-unit=ms", "-symbolize=none", profile).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go tool pprof %s: %v: %s", report, err, firstLine(string(out)))
	}
	return string(out), nil
}

// parsePprofDur parses pprof's sample durations ("870.0ms"; also
// "1.07s" and "1.20mins" in other units).
func parsePprofDur(s string) (time.Duration, error) {
	if v, ok := strings.CutSuffix(s, "mins"); ok {
		s = v + "m"
	}
	return time.ParseDuration(s)
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(strings.TrimSpace(s), "\n")
	return line
}
