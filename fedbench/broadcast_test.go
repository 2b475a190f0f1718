package main

import (
	"testing"
	"time"
)

func TestUpdateUnits(t *testing.T) {
	w := newWindow(0, 1, time.Hour, time.Second, nil)
	b := &broadcast{recs: []*recorder{w.rec}}
	m1 := &member{upd: map[int]*updateSeen{}}
	m2 := &member{upd: map[int]*updateSeen{}}
	b.members = []*member{m1, m2}
	in := w.start.Add(time.Second)
	// m1: 10..15 with 12 missing, 11 arriving behind 13, 14 twice.
	for _, seq := range []uint64{10, 13, 11, 14, 14, 15} {
		b.receiveUpdate(m1, seq, in)
	}
	// m2: 20..21 in the window; one before it does not count.
	b.receiveUpdate(m2, 5, w.start.Add(-time.Second))
	for _, seq := range []uint64{20, 21} {
		b.receiveUpdate(m2, seq, in)
	}
	b.countUpdates(0, w.rec)
	want := updateUnits{Units: 8, Gaps: 1, Reorders: 1, Duplicates: 1}
	if b.updates != want {
		t.Fatalf("update units %+v, want %+v", b.updates, want)
	}
	r := w.rec
	// The gap and the duplicate fail their units; the reordered update
	// completed and is counted apart.
	if r.attempted != 8 || r.failed() != 2 || r.reorders != 1 || r.flawed() != 3 || len(r.lat) != 0 {
		t.Fatalf("recorder attempted %d failed %d reorders %d flawed %d timed %d, want 8, 2, 1, 3, 0",
			r.attempted, r.failed(), r.reorders, r.flawed(), len(r.lat))
	}
}
