package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},   // overlaps the first: covered once
		{Start: 90, End: 120},  // sticks out past the parent: clipped
		{Start: 200, End: 300}, // outside: ignored
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Fatalf("self time = %v, want 60ns", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %v", got)
	}
}

func TestTracerLinksChildren(t *testing.T) {
	tr := &tracer{}
	ctx, endRoot := tr.begin(context.Background(), "unit")
	_, endChild := tr.begin(ctx, "portal.command")
	time.Sleep(time.Millisecond)
	endChild()
	endRoot()
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	child, root := spans[0], spans[1]
	if root.Parent != 0 || child.Parent != root.ID {
		t.Fatalf("child parent %d, root id %d parent %d", child.Parent, root.ID, root.Parent)
	}
	if child.dur() < time.Millisecond || root.dur() < child.dur() {
		t.Fatalf("durations: root %v, child %v", root.dur(), child.dur())
	}
	var none *tracer
	if _, end := none.begin(context.Background(), "x"); end == nil {
		t.Fatal("a nil tracer returned no end function")
	}
}
