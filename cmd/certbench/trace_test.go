package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(v float64) float64 { return v * 1000 } // to µs
	spans := []spanRec{
		{ID: 0, Parent: -1, Name: "op", StartUS: ms(0), EndUS: ms(100)},
		// Two parallel children overlapping on [30, 50]: they cover
		// [10, 70], 60 ms, not 40+40.
		{ID: 1, Parent: 0, Name: "a", StartUS: ms(10), EndUS: ms(50)},
		{ID: 2, Parent: 0, Name: "b", StartUS: ms(30), EndUS: ms(70)},
		// A grandchild counts against its parent only.
		{ID: 3, Parent: 1, Name: "c", StartUS: ms(20), EndUS: ms(25)},
		// A child running past its parent's end is clipped to the parent.
		{ID: 4, Parent: 0, Name: "d", StartUS: ms(90), EndUS: ms(120)},
	}
	self := selfMS(spans)
	for id, want := range map[int]float64{0: 30, 1: 35, 2: 40, 3: 5, 4: 30} {
		if !near(self[id], want) {
			t.Errorf("span %d: self %g ms, want %g", id, self[id], want)
		}
	}
}

func TestRecorderKeepsEverySpan(t *testing.T) {
	r := newRecorder()
	root := r.root("measure", "op")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := root.child("work")
			time.Sleep(time.Millisecond)
			s.end()
		}()
	}
	wg.Wait()
	root.derived("stage", "x", 0, 2*time.Millisecond)
	rp := root.sibling("replay")
	rp.end()
	root.end()

	spans := r.snapshot()
	if len(spans) != 11 {
		t.Fatalf("%d spans recorded, want 11", len(spans))
	}
	for _, s := range spans {
		if s.Op != 0 || s.EndUS < s.StartUS {
			t.Errorf("span %+v", s)
		}
	}
	if got := perOp(spans, selfMS(spans), "work", false); len(got) != 1 || got[0] < 8 {
		t.Errorf("work per op = %v, want one op of ≥ 8 ms", got)
	}
	if spans[rp.id].Parent != -1 {
		t.Error("a sibling must be a root of the same op")
	}

	// Untraced runs use a nil recorder: every call is a no-op.
	var none *recorder
	s := none.root("measure", "op")
	s.child("x").end()
	s.derived("y", "", 0, time.Second)
	s.end()
	if none.snapshot() != nil {
		t.Error("a nil recorder recorded spans")
	}
}

func TestAssembleIsHierarchyStageMinusLanewidth(t *testing.T) {
	spans := []spanRec{
		{Op: 1, Name: "core.hierarchy_stage", StartUS: 0, EndUS: 10000},
		{Op: 1, Name: "lanewidth.hierarchy", StartUS: 0, EndUS: 3000},
		{Op: 1, Name: "lanewidth.validate", StartUS: 0, EndUS: 2000},
	}
	if got := assembleMS(spans); len(got) != 1 || !near(got[0], 5) {
		t.Errorf("assemble = %v ms, want [5]", got)
	}
}
