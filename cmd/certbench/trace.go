package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// spanRec is one recorded span. Times are microseconds since the
// recorder's epoch. Spans of one op share Op; a root has Parent −1.
type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Phase   string  `json:"phase"`
	Name    string  `json:"name"`
	Detail  string  `json:"detail,omitempty"` // e.g. the property a sweep ran for
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// AllocBytes and GCCycles are runtime deltas over the span; they are
	// process-wide, so a span that overlaps concurrent work shares them.
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint64 `json:"gc_cycles"`
	// Derived spans are not timed by the benchmark: their length is one of
	// the program's own stage counters (core.StageTimings), laid out in
	// pipeline order from the start of the enclosing span.
	Derived bool `json:"derived,omitempty"`
}

func (s spanRec) durMS() float64 { return (s.EndUS - s.StartUS) / 1000 }

// recorder keeps every span of a traced run in memory until the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check per
// span site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is an open span; a nil span (from a nil recorder) is inert.
type span struct {
	r      *recorder
	id, op int
	phase  string
	start  time.Time
	rt     rtSample
}

func (r *recorder) us(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1000 }

func (r *recorder) open(parent, op int, phase, name string) *span {
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Op: op, Phase: phase, Name: name})
	r.mu.Unlock()
	return &span{r: r, id: id, op: op, phase: phase, start: time.Now(), rt: readRuntime()}
}

// root opens the first span of a new op.
func (r *recorder) root(phase, name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	op := r.ops
	r.ops++
	r.mu.Unlock()
	return r.open(-1, op, phase, name)
}

// child opens a span caused by s. Children may run concurrently.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.r.open(s.id, s.op, s.phase, name)
}

// sibling opens a new root in s's op: the untimed replay that breaks the
// op down by layer, recorded beside the op's own span.
func (s *span) sibling(name string) *span {
	if s == nil {
		return nil
	}
	return s.r.open(-1, s.op, s.phase, name)
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now, rt := time.Now(), readRuntime()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	rec := &s.r.spans[s.id]
	rec.StartUS, rec.EndUS = s.r.us(s.start), s.r.us(now)
	rec.AllocBytes = rt.allocBytes - s.rt.allocBytes
	rec.GCCycles = rt.gcCycles - s.rt.gcCycles
}

// derived records a child of s that the program timed itself, placed at
// offset from s's start. It returns the child's end offset so consecutive
// pipeline stages can be laid out one after another.
func (s *span) derived(name, detail string, offset, d time.Duration) time.Duration {
	if s == nil {
		return offset + d
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	start := s.r.us(s.start.Add(offset))
	s.r.spans = append(s.r.spans, spanRec{
		ID: len(s.r.spans), Parent: s.id, Op: s.op, Phase: s.phase, Name: name, Detail: detail,
		StartUS: start, EndUS: start + float64(d.Nanoseconds())/1000, Derived: true,
	})
	return offset + d
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []spanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// selfMS returns each span's self time in milliseconds: its duration minus
// the part of its interval covered by the union of its children, so two
// overlapping parallel children are not subtracted twice.
func selfMS(spans []spanRec) map[int]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.EndUS - s.StartUS - covered(kids[s.ID], s.StartUS, s.EndUS)) / 1000
	}
	return out
}

// covered is the length of the union of the intervals clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// perOp sums, within each op, the durations (or, with self, the self
// times) of the spans named name, and returns one value per op that has
// any. Per-layer metrics are medians of these values.
func perOp(spans []spanRec, selfs map[int]float64, name string, self bool) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		if self {
			sums[s.Op] += selfs[s.ID]
		} else {
			sums[s.Op] += s.durMS()
		}
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// rtSample is a reading of the runtime counters the benchmark reports.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds of wall time the world was stopped for GC
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var out rtSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = ss[1].Value.Uint64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		// Pause CPU time is charged to every P while the world is stopped.
		out.gcPause = ss[2].Value.Float64() / float64(runtime.GOMAXPROCS(0))
	}
	return out
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcPause + b.gcPause}
}
