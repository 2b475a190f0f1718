package main

import (
	"math"
	"strings"
	"testing"
)

const promBefore = `# TYPE discover_fifo_wait_seconds histogram
discover_fifo_wait_seconds_bucket{le="0.000001"} 3
discover_fifo_wait_seconds_bucket{le="+Inf"} 4
discover_fifo_wait_seconds_sum 0.002
discover_fifo_wait_seconds_count 4
discover_relay_flush_seconds_sum{peer="a"} 0.5
discover_relay_flush_seconds_count{peer="a"} 10
discover_edge_shed_total{reason="overloaded"} 7
discover_edge_shed_total{reason="rate_limited"} 1
discover_edge_stream_events_total 100 1700000000000
`

const promAfter = `discover_fifo_wait_seconds_sum 0.010
discover_fifo_wait_seconds_count 8
discover_relay_flush_seconds_sum{peer="a"} 0.8
discover_relay_flush_seconds_count{peer="a"} 13
discover_relay_flush_seconds_sum{peer="b"} 0.2
discover_relay_flush_seconds_count{peer="b"} 2
discover_edge_shed_total{reason="overloaded"} 9
discover_edge_shed_total{reason="rate_limited"} 0
discover_edge_stream_events_total 30
`

func mustParse(t *testing.T, s string) promSnap {
	t.Helper()
	p, err := parseProm(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseProm(t *testing.T) {
	p := mustParse(t, promBefore)
	if got := p[`discover_edge_shed_total{reason="overloaded"}`]; got != 7 {
		t.Errorf("labelled counter = %v, want 7", got)
	}
	if got := p["discover_edge_stream_events_total"]; got != 100 {
		t.Errorf("counter with a timestamp = %v, want 100", got)
	}
	if got := p[`discover_fifo_wait_seconds_bucket{le="+Inf"}`]; got != 4 {
		t.Errorf("+Inf bucket = %v, want 4", got)
	}
	if got := p.sum("discover_edge_shed_total"); got != 8 {
		t.Errorf("sum over labels = %v, want 8", got)
	}
	if _, err := parseProm(strings.NewReader("discover_x 1 2 3\n")); err == nil {
		t.Error("a line with three fields parsed")
	}
	if _, err := parseProm(strings.NewReader("discover_x one\n")); err == nil {
		t.Error("a non-numeric value parsed")
	}
}

func TestPromDeltaCountsResets(t *testing.T) {
	d := promDelta(mustParse(t, promBefore), mustParse(t, promAfter))
	// A counter that fell was reset: all of its new value is new.
	if got := d["discover_edge_stream_events_total"]; got != 30 {
		t.Errorf("reset counter delta = %v, want 30", got)
	}
	if got := d[`discover_edge_shed_total{reason="rate_limited"}`]; got != 0 {
		t.Errorf("reset-to-zero delta = %v, want 0", got)
	}
	if got := d.sum("discover_edge_shed_total"); got != 2 {
		t.Errorf("shed delta = %v, want 2", got)
	}
	// A series born in the window counts from zero.
	if got := d[`discover_relay_flush_seconds_count{peer="b"}`]; got != 2 {
		t.Errorf("new series delta = %v, want 2", got)
	}
}

func TestHistogramMeanFromSumAndCount(t *testing.T) {
	d := promDelta(mustParse(t, promBefore), mustParse(t, promAfter))
	// (0.010-0.002) s over (8-4) observations: 2 ms, exact even though
	// every observation fell in one power-of-two bucket.
	if got := d.histMean("discover_fifo_wait_seconds"); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("fifo wait mean = %v, want 0.002", got)
	}
	// Across label sets: (0.3 + 0.2) s over (3 + 2).
	if got := d.histMean("discover_relay_flush_seconds"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("relay flush mean = %v, want 0.1", got)
	}
	if got := d.histMean("discover_absent_seconds"); got != 0 {
		t.Errorf("mean of an absent histogram = %v, want 0", got)
	}
}
