package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.8, 4}, {0.81, 5}, {1, 5}} {
		if got := percentile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The reportable tail is the highest percentile with at least ten samples
// beyond it: p99 needs 1,000 samples, p99.9 needs 10,000.
func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := highestTail(tc.n); q > 0 && tc.n-rank(tc.n, q) < minTail {
			t.Errorf("highestTail(%d) = %v leaves %d beyond it", tc.n, q, tc.n-rank(tc.n, q))
		}
	}
}

func TestPoissonScheduleReplays(t *testing.T) {
	a := poisson(rand.New(rand.NewSource(7)), 300, 10*time.Second)
	b := poisson(rand.New(rand.NewSource(7)), 300, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c := poisson(rand.New(rand.NewSource(8)), 300, 10*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 3,000 expected arrivals: within five standard deviations (~55).
	if n := len(a); n < 2700 || n > 3300 {
		t.Fatalf("%d arrivals at 300/s over 10s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}

func TestWindowSeedsAreIndependentOfTime(t *testing.T) {
	w1 := newWindow(0, 42, time.Second, time.Second, nil)
	w2 := newWindow(0, 42, time.Second, time.Second, nil)
	if poisson(w1.rng, 100, time.Second)[0] != poisson(w2.rng, 100, time.Second)[0] {
		t.Fatal("two windows of one seed and index drew different schedules")
	}
}
