// Command certbench is the repository's benchmark: one command that
// measures proving, wire verification and the certifyd service end to end
// on seeded inputs, checks every output, and — in a separate traced run —
// breaks each operation down into the layers that produce it.
//
//	go run . -workload prove-large -seed 1 -seconds 20          end-to-end metrics
//	go run . -workload prove-large -seed 1 -seconds 20 -trace   per-layer metrics
//	go run .                                                    every workload, each in its own process
//
// Run it from the repository root (bash cmd/certbench/run.sh builds it with
// its own module and forwards the flags). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
// whose outputs fail a check prints correct=false and exits 1. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measured phase of one run (BENCHMARK.json's
// run_seconds).
const defaultSeconds = 20

// workloadNames lists the workloads in the order a full run makes them.
var workloadNames = []string{"prove-large", "props-batch", "verify-wire", "service-mix"}

// runTimeout bounds one workload run, set-up and check included.
const runTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// normalizeArgs lets the boolean -trace take its value as a separate
// argument ("-trace 1", the form benchmark harnesses pass), which the flag
// package reads only as "-trace=1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("certbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" (default: all, each in its own process)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and schedule")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured phase in seconds")
	trace := fs.Bool("trace", false, "traced run: record spans and report the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "certbench"), "directory for the results files")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintf(stderr, "certbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, sizes: defaultSizes}
	if cfg.workload == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	res, err := runOne(cfg, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and returns its outcome and spans.
func measure(cfg config) (*outcome, []spanRec, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	e := &env{cfg: cfg, ctx: ctx, out: &outcome{values: map[string]float64{}}}
	if cfg.trace {
		e.rec = newRecorder()
	}
	var err error
	switch cfg.workload {
	case "prove-large":
		err = runClosed(e, func() closedWorkload { return &proveLarge{} })
	case "props-batch":
		err = runClosed(e, func() closedWorkload { return &propsBatch{} })
	case "verify-wire":
		err = runClosed(e, func() closedWorkload { return &verifyWire{} })
	case "service-mix":
		err = runService(e)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, nil, err
	}
	return e.out, e.rec.snapshot(), nil
}

// runOne runs one workload, prints its report, and writes its results file.
func runOne(cfg config, outDir string, stdout io.Writer) (result, error) {
	o, spans, err := measure(cfg)
	if err != nil {
		return result{}, err
	}
	all := finish(o, spans)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{all[d.name], d.unit}
	}

	hdr := environment(cfg)
	fmt.Fprintf(stdout, "certbench %s  seed %d  %gs measured  trace %v  %s  GOMAXPROCS %d  %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, hdr["go"], runtime.GOMAXPROCS(0), hdr["cpu"])
	fmt.Fprintf(stdout, "  ops %d  failed %d  op p95 %s\n", o.attempted, o.failed, pctString(o.opMS, 95, "ms"))
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "  %-36s %.6g\n", k, all[k])
	}
	if spans != nil {
		fmt.Fprintln(stdout, "  spans (per op: count, median duration, median self time):")
		for _, l := range spanTable(spans) {
			fmt.Fprintln(stdout, l)
		}
	}
	if o.failed > 0 {
		fmt.Fprintf(stdout, "  FAILED: %s\n", strings.Join(o.errs, "; "))
	}
	if err := writeResults(outDir, cfg, hdr, res, all, spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// environment is the header every results file carries.
func environment(cfg config) map[string]string {
	h := map[string]string{
		"go":         runtime.Version(),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"gogc":       os.Getenv("GOGC"),
		"gomemlimit": os.Getenv("GOMEMLIMIT"),
		"revision":   "unknown",
		"workload":   cfg.workload,
		"seed":       strconv.FormatInt(cfg.seed, 10),
		"seconds":    strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"setups":     strconv.Itoa(cfg.sizes.setups),
		"trace":      strconv.FormatBool(cfg.trace),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["revision"] = s.Value
			case "vcs.modified":
				h["modified"] = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeResults writes the run's results file: the environment header,
// every metric the run computed, and in a traced run every span.
func writeResults(dir string, cfg config, hdr map[string]string, res result, all map[string]float64, spans []spanRec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"environment": hdr, "result": res, "all_metrics": all}
	if spans != nil {
		selfs := selfMS(spans)
		type spanOut struct {
			spanRec
			SelfMS float64 `json:"self_ms"`
		}
		out := make([]spanOut, len(spans))
		for i, s := range spans {
			out[i] = spanOut{s, selfs[s.ID]}
		}
		doc["spans"] = out
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// runAll runs every workload in a child process of its own, so each
// reports its own peak memory, and prints their results together.
func runAll(cfg config, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %v\n", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloadNames {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace="+strconv.FormatBool(cfg.trace), "-out", outDir)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &buf), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "certbench: %s: %v\n", w, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		code = 1
	}
	return code
}
