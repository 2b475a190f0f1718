package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSnap is one scrape of a Prometheus text exposition: the value of
// every series, keyed by the series exactly as written (name plus label
// set, e.g. `discover_edge_shed_total{reason="overloaded"}`).
type promSnap map[string]float64

// parseProm reads the text exposition format (version 0.0.4): comment
// and blank lines are skipped, and an optional trailing timestamp is
// ignored.
func parseProm(r io.Reader) (promSnap, error) {
	snap := promSnap{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, rest := line, ""
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			key, rest = line[:i+1], line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			key, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("prometheus line %d: malformed %q", n, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", n, err)
		}
		snap[key] = v
	}
	return snap, sc.Err()
}

// seriesName is the metric name of a series key, without its labels.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// promDelta returns end − start for every series in end. A series that
// fell is taken to have been reset to zero in between, so all of its end
// value counts as new; a series absent at start counts from zero.
func promDelta(start, end promSnap) promSnap {
	d := make(promSnap, len(end))
	for k, v := range end {
		s := start[k]
		if v < s {
			s = 0
		}
		d[k] = v - s
	}
	return d
}

// sum adds up every label set of the named series.
func (p promSnap) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if seriesName(k) == name {
			t += v
		}
	}
	return t
}

// histMean is the mean observation of the named histogram, in the
// histogram's own unit, from its _sum and _count series across all label
// sets. Unlike the bucket counts this is exact. 0 when nothing was
// observed.
func (p promSnap) histMean(name string) float64 {
	return ratio(p.sum(name+"_sum"), p.sum(name+"_count"))
}
