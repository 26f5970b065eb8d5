package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sizes are the workload parameters. defaultSizes are the committed
// benchmark; the smoke test runs the same code at tinySizes.
type sizes struct {
	proveN, proveWidth   int     // prove-large: Interval(seed, proveN, proveWidth)
	ladderRungs          int     // props-batch: Ladder(ladderRungs)
	verifyN, verifyWidth int     // verify-wire: Interval(seed, verifyN, verifyWidth)
	serviceN             int     // service-mix: vertices per stored graph
	serviceRate          float64 // service-mix: offered requests per second
	setups               int     // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	proveN: 32768, proveWidth: 2,
	ladderRungs: 2048,
	verifyN:     8192, verifyWidth: 2,
	serviceN: 512, serviceRate: 16,
	setups: 3,
}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured phase
	trace    bool
	sizes    sizes
}

// sloMS is the latency limit slo_ratio counts against.
const sloMS = 250

// minOps is the fewest measured ops a run makes, however short its phase.
const minOps = 3

// env is what a workload sees of its run.
type env struct {
	cfg config
	ctx context.Context
	rec *recorder // nil when untraced
	out *outcome
}

// outcome accumulates one run's measurements.
type outcome struct {
	setupS   []float64 // wall seconds per set-up
	setupCPU []float64 // CPU seconds per set-up
	opMS     []float64 // untraced op latencies (service-mix: from due)
	tracedMS []float64 // traced ops' own spans, for the tracing overhead
	busy     time.Duration
	window   time.Duration // service-mix: first due to last completion
	rt       rtSample      // runtime deltas over the untraced ops
	cpu      time.Duration // process CPU time over the untraced ops
	rtOps    int
	steal    float64 // share of the measured phase's CPU time stolen by the host
	rssMB    float64

	attempted, failed int
	errs              []string
	sloMet            int

	// values are the run's remaining metrics, set by the workload: exact
	// quantities, layer counters and printed-only figures.
	values map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// closedWorkload is a workload with one caller issuing ops back to back.
type closedWorkload interface {
	// setup makes inputs from the seed and warms up, once per value; the
	// runner sets up several fresh values and keeps the last.
	setup(e *env, sp *span) error
	// op runs one measured operation. When sp is non-nil it records its
	// facade calls under sp and may return a replay, run untimed after.
	op(e *env, sp *span) (replay func() error, err error)
	// check verifies the run's outputs once the measured phase is over.
	check(e *env) error
}

// timeSetups sets up the run several times, timing each. drop releases
// the previous set-up's state first, so set-ups never share the heap.
func timeSetups(e *env, drop func(), setup func(sp *span) error) error {
	for i := 0; i < e.cfg.sizes.setups; i++ {
		drop()
		runtime.GC()
		sp := e.rec.root("setup", "setup")
		t0, c0 := time.Now(), cpuTime()
		err := setup(sp)
		e.out.setupS = append(e.out.setupS, time.Since(t0).Seconds())
		e.out.setupCPU = append(e.out.setupCPU, (cpuTime() - c0).Seconds())
		sp.end()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	return nil
}

// runClosed drives a closed-loop workload. In a traced run every second op
// is traced, so the untraced ones keep giving the end-to-end numbers and
// the two halves give the tracing overhead.
func runClosed(e *env, fresh func() closedWorkload) error {
	var w closedWorkload
	if err := timeSetups(e, func() { w = nil }, func(sp *span) error {
		w = fresh()
		return w.setup(e, sp)
	}); err != nil {
		return err
	}
	runtime.GC()
	o := e.out
	start, steal0 := time.Now(), stolen()
	deadline := start.Add(time.Duration(e.cfg.seconds * float64(time.Second)))
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if e.ctx.Err() != nil {
			return e.ctx.Err()
		}
		var sp *span
		if e.rec != nil && i%2 == 1 {
			sp = e.rec.root("measure", "op")
		}
		rt0, c0, t0 := readRuntime(), cpuTime(), time.Now()
		replay, err := w.op(e, sp)
		d, cpu, rt := time.Since(t0), cpuTime()-c0, readRuntime().sub(rt0)
		sp.end()
		o.attempted++
		if err != nil {
			o.fail(err)
		} else if ms(d) <= sloMS {
			o.sloMet++
		}
		if sp != nil {
			o.tracedMS = append(o.tracedMS, ms(d))
		} else {
			o.opMS = append(o.opMS, ms(d))
			o.busy += d
			o.cpu += cpu
			o.rt = o.rt.add(rt)
			o.rtOps++
		}
		if replay != nil {
			if err := replay(); err != nil {
				o.fail(err)
			}
		}
	}
	o.rssMB = peakRSSMB()
	o.steal = stealShare(time.Since(start), stolen()-steal0)
	if err := w.check(e); err != nil {
		o.fail(fmt.Errorf("check: %w", err))
	}
	return nil
}

// cpuTime is the process's user plus system CPU time so far. Time the
// hypervisor steals from the VM's CPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen is the CPU time the hypervisor has taken from all of the VM's
// CPUs since boot (the steal column of /proc/stat), or 0 where unknown.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// stealShare is the stolen share of the VM's CPU time over a phase.
func stealShare(wall, steal time.Duration) float64 {
	return steal.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json (the smoke test holds them
// equal): an untraced run prints endToEnd, a traced one perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"label_bits_max", "bits"},
	{"cert_bytes", "bytes"},
}

var perLayer = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"ops_per_s", "op/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p95", "ms"},
	{"slo_ratio", "ratio"},
	{"graphio.ingest_ms", "ms"},
	{"interval.decompose_ms", "ms"},
	{"lanes.build_ms", "ms"},
	{"lanewidth.transcript_ms", "ms"},
	{"lanewidth.hierarchy_ms", "ms"},
	{"lanewidth.validate_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.sweep_ms", "ms"},
	{"algebra.registry_classes", "count"},
	{"certify.marshal_ms", "ms"},
	{"certify.unmarshal_ms", "ms"},
	{"core.decode_label_ms", "ms"},
	{"core.encode_label_ms", "ms"},
	{"core.rebuild_registry_ms", "ms"},
	{"core.verify_ms", "ms"},
	{"certify.verify_ms", "ms"},
	{"verify.detect_ratio", "ratio"},
	{"serve.facade_share.prove", "ratio"},
	{"serve.facade_share.fetch", "ratio"},
	{"serve.facade_share.verify", "ratio"},
	{"serve.facade_share.verify_dist", "ratio"},
	{"serve.facade_share.patch", "ratio"},
	{"serve.req_kb_p50.verify", "kB"},
	{"serve.structure_miss_ratio", "ratio"},
	{"serve.rejected_429", "count"},
	{"update.dirty_ops_p50", "count"},
	{"update.reused_entries_ratio", "ratio"},
	{"update.reused_labels_ratio", "ratio"},
	{"update.reused_sources_ratio", "ratio"},
	{"update.fallback_count", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.prove_coverage", "ratio"},
	{"trace.verify_coverage", "ratio"},
	{"host.steal_share", "ratio"},
}

// layerSpans maps per-layer metrics to the span whose per-op duration
// they report.
var layerSpans = map[string]string{
	"graphio.ingest_ms":        "graphio.ingest",
	"interval.decompose_ms":    "interval.decompose",
	"lanes.build_ms":           "lanes.build",
	"lanewidth.transcript_ms":  "lanewidth.transcript",
	"lanewidth.hierarchy_ms":   "lanewidth.hierarchy",
	"lanewidth.validate_ms":    "lanewidth.validate",
	"core.sweep_ms":            "core.sweep",
	"certify.marshal_ms":       "certify.marshal",
	"certify.unmarshal_ms":     "certify.unmarshal",
	"core.decode_label_ms":     "core.decode_label",
	"core.encode_label_ms":     "core.encode_label",
	"core.rebuild_registry_ms": "core.rebuild_registry",
	"core.verify_ms":           "core.verify",
	"certify.verify_ms":        "certify.verify",
}

// finish turns the outcome and spans into every metric the run reports.
func finish(o *outcome, spans []spanRec) map[string]float64 {
	m := map[string]float64{}
	for k, v := range o.values {
		m[k] = v
	}
	m["setup_s"] = median(o.setupCPU)
	m["setup_wall_s"] = median(o.setupS)
	m["host.steal_share"] = o.steal
	m["op_ms_p50"] = median(o.opMS)
	m["op_ms_p95"], _ = percentile(o.opMS, 95)
	if o.window > 0 {
		m["ops_per_s"] = float64(len(o.opMS)) / o.window.Seconds()
	} else if o.busy > 0 {
		m["ops_per_s"] = float64(len(o.opMS)) / o.busy.Seconds()
	}
	m["peak_rss_mb"] = o.rssMB
	if o.attempted > 0 {
		m["slo_ratio"] = float64(o.sloMet) / float64(o.attempted)
	}
	if o.rtOps > 0 {
		n := float64(o.rtOps)
		m["cpu_ms_per_op"] = float64(o.cpu) / float64(time.Millisecond) / n
		m["runtime.alloc_mb_per_op"] = float64(o.rt.allocBytes) / (1 << 20) / n
		m["runtime.gc_cycles_per_op"] = float64(o.rt.gcCycles) / n
		m["runtime.gc_pause_ms_per_op"] = o.rt.gcPause * 1000 / n
	}
	if len(o.tracedMS) > 0 && len(o.opMS) > 0 {
		m["trace.overhead_ratio"] = median(o.tracedMS) / median(o.opMS)
	}
	if spans == nil {
		return m
	}
	selfs := selfMS(spans)
	for metric, name := range layerSpans {
		m[metric] = median(perOp(spans, selfs, name, false))
	}
	m["core.assemble_ms"] = median(assembleMS(spans))
	m["trace.prove_coverage"] = median(coverage(spans,
		[]string{"certify.prove_batch", "certify.prove_batch_on"},
		[]string{"interval.decompose", "core.build_structure", "core.prove_all"}))
	m["trace.verify_coverage"] = median(coverage(spans,
		[]string{"certify.unmarshal", "certify.verify"},
		[]string{"core.decode_label", "core.encode_label", "core.rebuild_registry", "core.verify"}))
	for k, v := range sweepsByProperty(spans) {
		m[k] = v
	}
	return m
}

// assembleMS is, per op, the structure build's hierarchy stage minus the
// lanewidth calls replayed from it: the core assembly of the artifact,
// orientation and pointing tables.
func assembleMS(spans []spanRec) []float64 {
	stage, lw := map[int]float64{}, map[int]float64{}
	for _, s := range spans {
		switch s.Name {
		case "core.hierarchy_stage":
			stage[s.Op] += s.durMS()
		case "lanewidth.hierarchy", "lanewidth.validate":
			lw[s.Op] += s.durMS()
		}
	}
	var out []float64
	for op, v := range stage {
		out = append(out, max(v-lw[op], 0))
	}
	return out
}

// coverage is, per op that has both, the replayed layer spans' total over
// the facade calls they replay: near 1 when the layer breakdown accounts
// for the facade's time.
func coverage(spans []spanRec, facade, layers []string) []float64 {
	f, l := map[int]float64{}, map[int]float64{}
	for _, s := range spans {
		if s.Derived {
			continue
		}
		if slices.Contains(facade, s.Name) {
			f[s.Op] += s.durMS()
		} else if slices.Contains(layers, s.Name) {
			l[s.Op] += s.durMS()
		}
	}
	var out []float64
	for op, fv := range f {
		if lv, ok := l[op]; ok && fv > 0 {
			out = append(out, lv/fv)
		}
	}
	return out
}

// spanTable summarizes the spans by name: count, median duration and
// median self time — the per-layer table a traced run prints.
func spanTable(spans []spanRec) []string {
	selfs := selfMS(spans)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var out []string
	for _, n := range sorted {
		durs := perOp(spans, selfs, n, false)
		self := perOp(spans, selfs, n, true)
		out = append(out, fmt.Sprintf("  %-32s ops %4d  median %10.3f ms  self %10.3f ms", n, len(durs), median(durs), median(self)))
	}
	return out
}
