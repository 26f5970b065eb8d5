// Command bench runs the E1–E13 experiment harness of EXPERIMENTS.md and
// prints the measured series. Each experiment regenerates the measurements
// standing in for one of the paper's quantitative claims:
//
//	bench                 # run all experiments
//	bench -exp e1         # run one experiment
//	bench -exp e1,e8,e9   # run a comma-separated subset
//	bench -exp e8,e9 -json   # also write BENCH_E8.json / BENCH_E9.json
//	bench -exp e11 -json     # incremental recertification → BENCH_E11.json
//
// E10, the closed-loop certifyd load generator, is retired: certbench's
// open-loop service-mix workload (cmd/certbench) measures the service.
//
// E12 boots distnet clusters over loopback TCP (certify/distnet, the
// multi-process runtime behind cmd/vertexd) and measures round time against
// the partition count plus fault-detection latency against the per-round
// fault-injection rate:
//
//	bench -exp e12 -json                         # → BENCH_E12.json
//
// E13 compiles the five reference MSO₂ formulas with internal/msoc and
// compares compile time, registry class counts, and prove overhead against
// the hand-written catalog algebras, on paths or cycles of the given size
// plus compiled 3-colourability on a four-rung ladder:
//
//	bench -exp e13 -json                         # → BENCH_E13.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiments to run: comma-separated subset of e1..e9 and e11..e13, or all")
		seed     = fs.Int64("seed", 1, "random seed")
		jsonOut  = fs.Bool("json", false, "write the E8, E9 and E11–E13 series as machine-readable JSON")
		jsonPath = fs.String("json-path", "BENCH_E8.json", "output path for the E8 series with -json")
		e9Path   = fs.String("e9-json-path", "BENCH_E9.json", "output path for the E9 series with -json")
		e11Path  = fs.String("e11-json-path", "BENCH_E11.json", "output path for the E11 series with -json")
		e11N     = fs.String("e11-ns", "1024,4096,16384", "E11: comma-separated graph sizes")
		e12Path  = fs.String("e12-json-path", "BENCH_E12.json", "output path for the E12 series with -json")
		e12N     = fs.Int("e12-n", 256, "E12: approximate vertex count of the workload ladder")
		e12Parts = fs.String("e12-parts", "1,2,4,8", "E12: comma-separated partition counts for the round-time series")
		e12Round = fs.Int("e12-rounds", 20, "E12: timed rounds per partition count, and rounds per fault-rate schedule")
		e12Rates = fs.String("e12-rates", "0.1,0.3,0.6,1.0", "E12: comma-separated per-round fault-injection rates")
		e13Path  = fs.String("e13-json-path", "BENCH_E13.json", "output path for the E13 series with -json")
		e13N     = fs.Int("e13-n", 4096, "E13: approximate vertex count of the workload graph")
		e1MaxN   = fs.Int("e1-max-n", 0, "E1: skip sweep sizes above this (0 = run the full sweep to 262144)")
		e8MaxN   = fs.Int("e8-max-n", 0, "E8: skip sweep sizes above this (0 = run the full sweep to 10⁶; the committed BENCH_E8.json ends at 262144)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile after the selected experiments to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := parseExpList(*exp)
	if err != nil {
		return err
	}
	want := func(name string) bool { return selected[name] || selected["all"] }
	out := os.Stdout
	ran := false

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, ferr := os.Create(*memProf)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "bench:", ferr)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if perr := pprof.WriteHeapProfile(f); perr != nil {
				fmt.Fprintln(os.Stderr, "bench:", perr)
			}
		}()
	}

	if want("e1") {
		ns, err := trimSizes(experiments.DefaultE1Ns, *e1MaxN, "-e1-max-n")
		if err != nil {
			return err
		}
		rows, err := experiments.E1LabelSize(ns)
		if err != nil {
			return err
		}
		experiments.PrintE1(out, rows)
		// The E1b sweep resolves its properties through the shared catalog —
		// the same name vocabulary cmd/certify and the certify package use.
		e1bProps, err := algebra.ByNames([]string{"3color", "acyclic"})
		if err != nil {
			return err
		}
		for _, prop := range e1bProps {
			rows, err := experiments.E1LabelSizeFor(prop, []int{32, 128, 512, 2048})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "E1b same sweep, φ = %s\n", prop.Name())
			for _, r := range rows {
				fmt.Fprintf(out, "%8d %12d %12.1f\n", r.N, r.CoreBits, r.CorePerLog)
			}
		}
		fmt.Fprintln(out)
		ran = true
	}
	if want("e2") {
		for _, k := range []int{2, 3} {
			rows, err := experiments.E2Congestion(*seed, k, []int{64, 256, 1024})
			if err != nil {
				return err
			}
			experiments.PrintE2(out, k, rows)
			fmt.Fprintln(out)
		}
		ran = true
	}
	if want("e3") {
		rows, err := experiments.E3Depth(*seed, []int{2, 3, 4, 5, 6}, 60)
		if err != nil {
			return err
		}
		experiments.PrintE3(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("e4") {
		rows, err := experiments.E4Pointing([]int{16, 256, 4096, 65536})
		if err != nil {
			return err
		}
		experiments.PrintE4(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("e5") {
		rows, err := experiments.E5Soundness(*seed, 200)
		if err != nil {
			return err
		}
		experiments.PrintE5(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("e6") {
		rows, err := experiments.E6LowerBound([]int{8, 16, 32, 64})
		if err != nil {
			return err
		}
		experiments.PrintE6(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("e7") {
		rows, err := experiments.E7MinorFree()
		if err != nil {
			return err
		}
		experiments.PrintE7(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("e8") {
		ns, err := trimSizes(experiments.DefaultE8Ns, *e8MaxN, "-e8-max-n")
		if err != nil {
			return err
		}
		rows, err := experiments.E8Scaling(ns)
		if err != nil {
			return err
		}
		experiments.PrintE8(out, rows)
		fmt.Fprintln(out)
		if *jsonOut {
			if err := writeJSON(*jsonPath, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *jsonPath)
		}
		ran = true
	}
	if want("e9") {
		rows, err := experiments.E9Amortization(4096, experiments.E9Props)
		if err != nil {
			return err
		}
		experiments.PrintE9(out, rows)
		fmt.Fprintln(out)
		if *jsonOut {
			if err := writeJSON(*e9Path, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *e9Path)
		}
		ran = true
	}
	if want("e11") {
		ns, err := parseLevels(*e11N)
		if err != nil {
			return err
		}
		rows, err := experiments.E11Recertification(ns, []int{1, 4, 16, 64})
		if err != nil {
			return err
		}
		experiments.PrintE11(out, rows)
		fmt.Fprintln(out)
		if *jsonOut {
			if err := writeJSON(*e11Path, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *e11Path)
		}
		ran = true
	}
	if want("e12") {
		parts, err := parseLevels(*e12Parts)
		if err != nil {
			return err
		}
		rates, err := parseRates(*e12Rates)
		if err != nil {
			return err
		}
		roundRows, err := experiments.E12RoundTime(*e12N, parts, *e12Round)
		if err != nil {
			return err
		}
		detectRows, err := experiments.E12Detection(*seed, *e12N, rates, *e12Round)
		if err != nil {
			return err
		}
		res := experiments.E12Result{RoundTime: roundRows, Detection: detectRows}
		experiments.PrintE12(out, res)
		fmt.Fprintln(out)
		if *jsonOut {
			if err := writeJSON(*e12Path, res); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *e12Path)
		}
		ran = true
	}
	if want("e13") {
		rows, err := experiments.E13Compiler(*e13N)
		if err != nil {
			return err
		}
		experiments.PrintE13(out, rows)
		fmt.Fprintln(out)
		if *jsonOut {
			if err := writeJSON(*e13Path, rows); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *e13Path)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment selection %q", *exp)
	}
	if *jsonOut && !want("e8") && !want("e9") && !want("e11") && !want("e12") && !want("e13") {
		return fmt.Errorf("-json requires the e8, e9, e11, e12 or e13 experiment (got -exp %s)", *exp)
	}
	return nil
}

// parseLevels parses a comma-separated list of positive integers (E11's
// graph sizes, E12's partition counts).
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, err := strconv.Atoi(part)
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad list entry %q (want a positive integer)", part)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}

// knownExps lists every -exp name in display order; "all" selects them all.
var knownExps = []string{
	"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e12", "e13",
}

// parseRates parses the E12 fault-rate list.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("bad fault rate %q", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty fault rate list %q", s)
	}
	return out, nil
}

// parseExpList splits the -exp flag on commas and validates every entry. An
// unknown name fails before any experiment runs, and the error lists the
// valid names so a typo is a one-glance fix.
func parseExpList(s string) (map[string]bool, error) {
	known := map[string]bool{"all": true}
	for _, name := range knownExps {
		known[name] = true
	}
	out := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)",
				name, strings.Join(knownExps, ", "))
		}
		out[name] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty experiment selection %q", s)
	}
	return out, nil
}

func writeJSON(path string, rows any) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// trimSizes drops the sweep sizes above maxN (0 keeps them all) and fails
// when none is left.
func trimSizes(ns []int, maxN int, flag string) ([]int, error) {
	if maxN <= 0 {
		return ns, nil
	}
	var out []int
	for _, n := range ns {
		if n <= maxN {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s %d leaves no sweep sizes", flag, maxN)
	}
	return out, nil
}
