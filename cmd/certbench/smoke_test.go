package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// tinySizes run every workload's full code path in about a second.
var tinySizes = sizes{
	proveN: 300, proveWidth: 2,
	ladderRungs: 24,
	verifyN:     200, verifyWidth: 2,
	serviceN: 40, serviceRate: 20,
	setups: 2,
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must honour.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", bf.RunSeconds, defaultSeconds)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end metrics differ:\nBENCHMARK.json %v\ncode           %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer metrics differ:\nBENCHMARK.json %v\ncode           %v", layer, perLayer)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsSmoke runs all four workloads at tiny sizes, untraced and
// traced, and checks that each emits exactly its metrics, with their
// units, and passes every output check, corrupted certificates included.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 5, seconds: 1, trace: traced, sizes: tinySizes}
			res, err := runOne(cfg, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !metricName.MatchString(d.name) {
					t.Errorf("metric name %q", d.name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g", w, d.name, m.Value)
				}
			}
			if traced && res.Metrics["verify.detect_ratio"].Value != 1 {
				t.Errorf("%s: a corrupted certificate was not rejected", w)
			}
		}
	}
}

func TestTraceTakesASeparateValue(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hit", "--trace", "0", "--seconds", "3", "-trace", "1", "-trace"})
	want := []string{"--workload", "hit", "--trace=0", "--seconds", "3", "-trace=1", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
	if code := run([]string{"--workload", "nope", "--seconds", "1", "--trace", "0"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}
