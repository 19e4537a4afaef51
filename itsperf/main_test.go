package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"itsim/internal/cluster"
	"itsim/internal/policy"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs  []float64
		med float64
		q   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, 2, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, 1.5, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1.5, 9.25, 2, 7.5, 3.25}, 4.125, [3]float64{1.875, 4.125, 7.9375}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if got := quartiles(c.xs); got != c.q {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.q)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("input reordered: %v", c.xs)
			}
		}
	}
	if median(nil) != 0 || quartiles(nil) != [3]float64{} {
		t.Error("empty input must give zeros")
	}
}

// fakeBench is a workload whose passes take no time; pass i returns
// digests[i] (the last one repeating) and errs[i] when set.
type fakeBench struct {
	digests []byte
	errs    map[int]error
	calls   int
}

func (f *fakeBench) setup(*layerTimes) error { return nil }

func (f *fakeBench) pass(*layerTimes) (passResult, error) {
	i := f.calls
	f.calls++
	d := f.digests[len(f.digests)-1]
	if i < len(f.digests) {
		d = f.digests[i]
	}
	return passResult{digest: sha256.Sum256([]byte{d}), records: 10, requests: 1}, f.errs[i]
}

func (f *fakeBench) check(passResult) error { return nil }

func TestDigestMismatchFailsPass(t *testing.T) {
	// The first bench built runs the timed passes; its call 0 is the
	// warm-up pass. Timed pass 1 returns another digest, timed pass 2 an
	// error, and timed pass 3 agrees with the warm-up pass.
	timed := &fakeBench{digests: []byte{1, 2, 1}, errs: map[int]error{2: errors.New("audit")}}
	built := 0
	mk := func(uint64) (bench, error) {
		if built++; built == 1 {
			return timed, nil
		}
		return &fakeBench{digests: []byte{1}}, nil
	}
	o := options{workload: "fake", seconds: 1e-9}
	r, err := measure(o, mk)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 || r.attempted != minPasses || r.correct {
		t.Fatalf("failed %d attempted %d correct %v; want 2 failed of %d, incorrect",
			r.failed, r.attempted, r.correct, minPasses)
	}
	var out bytes.Buffer
	if err := report(&out, o, r); err != nil {
		t.Fatal(err)
	}
	res := lastLine(t, out.String())
	if res.Correct || res.Failed != 2 || res.Attempted != minPasses {
		t.Fatalf("printed result %+v", res)
	}
}

func TestAllPassesAgreeIsCorrect(t *testing.T) {
	f := &fakeBench{digests: []byte{7}}
	r, err := measure(options{workload: "fake", seconds: 1e-9}, func(uint64) (bench, error) { return f, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != 0 || r.attempted != minPasses {
		t.Fatalf("correct %v failed %d attempted %d", r.correct, r.failed, r.attempted)
	}
}

func lastLine(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return res
}

// testdata/cpu.pprof is a CPU profile of `go test -bench MachineRun
// ./internal/machine` with its file names cut to base names. The expected
// counts were read from `go tool pprof -raw` on the same file.
const (
	recordedSamples = 261
	recordedCumRun  = 248 // samples under machine.(*Machine).Run
)

var recordedSelf = map[string]int{
	"cache": 43, "exec": 51, "kernel": 1, "other": 87, "pagetable": 12,
	"preexec": 1, "runtime": 33, "sim": 12, "workload": 21, "smp": 0,
}

func TestDecodeRecordedProfile(t *testing.T) {
	raw, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.total(); got != recordedSamples {
		t.Errorf("total samples %d, want %d", got, recordedSamples)
	}
	shares := p.selfShares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	for pkg, want := range recordedSelf {
		if got := shares[pkg] * float64(recordedSamples); math.Abs(got-float64(want)) > 1e-6 {
			t.Errorf("self samples in %s: %v, want %d", pkg, got, want)
		}
	}
	if got := p.cumShare("itsim/internal/machine.(*Machine).Run") * float64(recordedSamples); math.Abs(got-recordedCumRun) > 1e-6 {
		t.Errorf("cumulative samples under machine Run: %v, want %d", got, recordedCumRun)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"itsim/internal/preexec.(*Engine).Run":      "preexec",
		"itsim/internal/exec.(*Core).Step":          "exec",
		"itsim/internal/metrics.(*Run).Summary":     "other",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "other",
		"os/exec.Command":                           "other",
		"main.(*batchBench).pass":                   "other",
		"itsim/internal/workload.(*Synthetic).Next": "workload",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the metrics the command
// prints are exactly the ones BENCHMARK.json declares, with the same
// units and directions, and that it names the same workloads.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for w := range workloads {
		ours = append(ours, w)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, BENCHMARK.json %v", ours, names)
	}
	for _, c := range []struct {
		label string
		defs  []metricDef
		spec  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", c.label, len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			s := c.spec[i]
			if d.name != s.Name || d.unit != s.Unit || d.better != s.Better {
				t.Errorf("%s[%d]: %+v, BENCHMARK.json %+v", c.label, i, d, s)
			}
		}
	}
}

// TestTinyRunsPrintDeclaredMetrics runs every workload kind at a tiny
// scale, untraced at the default seed and traced at another, and checks the gate passes, no pass fails,
// and the printed metrics are exactly the declared ones.
func TestTinyRunsPrintDeclaredMetrics(t *testing.T) {
	tiny := map[string]func(uint64) (bench, error){
		"batch-its-1c": func(seed uint64) (bench, error) {
			return newBatchBench("3_Data_Intensive", policy.ITS, 1, 0.005, seed)
		},
		"batch-sync-4c": func(seed uint64) (bench, error) {
			return newBatchBench("3_Data_Intensive", policy.Sync, 4, 0.005, seed)
		},
		"fleet": func(seed uint64) (bench, error) {
			return newFleetBench(2, policy.ITS, cluster.LeastLoaded, 0.005, seed), nil
		},
	}
	// Seed 0 also runs the core.RunBatch comparison of the gate.
	runs := []struct {
		seed   uint64
		traced bool
	}{{0, false}, {9, true}}
	for name, mk := range tiny {
		for _, c := range runs {
			o := options{workload: name, seed: c.seed, seconds: 1e-9, trace: c.traced}
			r, err := measure(o, mk)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, c.seed, err)
			}
			if r.gateErr != nil || !r.correct {
				t.Fatalf("%s seed %d: gate %v, failed %d/%d", name, c.seed, r.gateErr, r.failed, r.attempted)
			}
			var out bytes.Buffer
			if err := report(&out, o, r); err != nil {
				t.Fatal(err)
			}
			res := lastLine(t, out.String())
			defs := endToEnd
			if c.traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s: printed %d metrics, want %d", name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s printed as %+v", name, d.name, m)
				}
				if !c.traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-its-1c", "--trace", "2"},
		{"--workload", "paper-its-1c", "--seconds", "0"},
		{"--workload", "paper-its-1c", "--seed", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
