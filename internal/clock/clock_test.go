package clock

import (
	"testing"
	"time"
)

func ticked(t *Ticker) bool {
	select {
	case <-t.C:
		return true
	default:
		return false
	}
}

// TestManualTickersFireOnlyOnAdvance pins the manual clock's contract: no
// tick before the period has been advanced through, one buffered tick per
// Advance however many periods it spans, and none after Stop.
func TestManualTickersFireOnlyOnAdvance(t *testing.T) {
	m := NewManual()
	start := m.Now()
	tk := m.NewTicker(time.Second)

	time.Sleep(5 * time.Millisecond)
	if ticked(tk) || !m.Now().Equal(start) {
		t.Fatal("manual clock moved without Advance")
	}
	m.Advance(999 * time.Millisecond)
	if ticked(tk) {
		t.Fatal("ticked before its period")
	}
	m.Advance(time.Millisecond)
	if !ticked(tk) {
		t.Fatal("no tick after one period")
	}
	m.Advance(5 * time.Second)
	if !ticked(tk) || ticked(tk) {
		t.Fatal("want exactly one buffered tick for five periods")
	}
	if got := m.Now().Sub(start); got != 6*time.Second {
		t.Fatalf("Now advanced %v, want 6s", got)
	}
	tk.Stop()
	m.Advance(time.Hour)
	if ticked(tk) {
		t.Fatal("stopped ticker ticked")
	}
}
