// Command itsperf is the simulator's performance benchmark. It runs one
// workload for a fixed wall time, one complete simulation (a pass) after
// another in this process, checks every pass's simulated output, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	bash itsperf/run.sh --workload paper-its-1c --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times the calls into each layer, adds a CPU profile, and reports the
// per-layer metrics. See itsperf/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"itsim/internal/cluster"
	"itsim/internal/policy"
)

// setupReps is how many times an untraced run builds its inputs from
// scratch; setup_s is the median of those set-ups.
const setupReps = 9

// minPasses is the least number of timed passes a run makes, however
// short --seconds is.
const minPasses = 3

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) (bench, error){
	"paper-its-1c": func(seed uint64) (bench, error) {
		return newBatchBench("3_Data_Intensive", policy.ITS, 1, 0.25, seed)
	},
	"smp-sync-4c": func(seed uint64) (bench, error) {
		return newBatchBench("3_Data_Intensive", policy.Sync, 4, 0.25, seed)
	},
	"fleet-its-16m": func(seed uint64) (bench, error) {
		return newFleetBench(16, policy.ITS, cluster.LeastLoaded, 0.1, seed), nil
	},
}

// metricDef names one reported metric. The same names, units and
// directions are listed in BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher"},
	{"requests_per_s", "requests/s", "higher"},
	{"alloc_mb_per_pass", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_makespan_ms", "ms", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.synth_ns_per_record", "ns/record", "lower"},
		{"smp.new_ms", "ms", "lower"},
		{"smp.run_ns_per_record", "ns/record", "lower"},
		{"metrics.summary_us", "us", "lower"},
		{"cluster.run_ns_per_epoch", "ns/epoch", "lower"},
		{"runtime.gc_cpu_frac", "fraction", "lower"},
	}
	for _, p := range append(append([]string(nil), profPackages...), "other") {
		defs = append(defs, metricDef{"prof." + p, "fraction", "lower"})
	}
	return append(defs,
		metricDef{"bench.trace_overhead_frac", "fraction", "lower"},
		metricDef{"sim.idle_ms", "ms", "lower"},
		metricDef{"its.stolen_ms", "ms", "higher"},
		metricDef{"kernel.major_faults", "count", "lower"},
		metricDef{"cache.llc_misses", "count", "lower"},
		metricDef{"cache.llc_miss_ratio", "fraction", "lower"},
		metricDef{"prefetch.issued", "count", "higher"},
		metricDef{"prefetch.useful_ratio", "fraction", "higher"},
		metricDef{"preexec.instrs", "count", "higher"},
		metricDef{"preexec.valid_ratio", "fraction", "higher"},
		metricDef{"sched.context_switches", "count", "lower"},
		metricDef{"smp.steals", "count", "higher"},
		metricDef{"cluster.epochs", "count", "lower"},
		metricDef{"cluster.slo_attain.web", "fraction", "higher"},
	)
}()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("itsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 0, "seed mixed into every workload seed (0 = the pinned seeds)")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall seconds of timed passes")
	fs.IntVar(&traceFlag, "trace", 0, "1 = per-layer run with layer timers and a CPU profile")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !(o.seconds > 0) || math.IsInf(o.seconds, 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "itsperf:", err)
		return 2
	}
	res, err := measure(o, workloads[o.workload])
	if err == nil {
		err = report(stdout, o, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "itsperf:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// runResult is everything one run measured.
type runResult struct {
	correct           bool
	attempted, failed int
	gateErr           error
	first             passResult
	setups            []float64 // seconds
	passes            []float64 // untraced pass seconds
	allocs            []float64 // untraced pass heap bytes
	traced            []float64 // traced pass seconds
	lt                *layerTimes
	prof              *cpuProfile
	gcFrac            float64
}

// measure sets the workload up, runs the equivalence gate, then runs
// timed passes for o.seconds: all untraced, or in a traced run the first
// half untraced and the second half with layer timers and the CPU profiler
// on. An untraced run spreads setupReps-1 more set-ups evenly through its
// passes, so setup_s samples the host over the whole run as the passes do.
func measure(o options, mk func(seed uint64) (bench, error)) (*runResult, error) {
	r := &runResult{}
	var lt *layerTimes
	if o.trace {
		lt = &layerTimes{}
	}
	// setUp builds a fresh bench and times its set-up plus one warm-up
	// pass. Every warm-up pass must give the first one's digest.
	setUp := func(lt *layerTimes) (bench, error) {
		runtime.GC() // start from a collected heap
		b, err := mk(o.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := b.setup(lt); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm, err := b.pass(nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if len(r.setups) == 1 {
			r.first = warm
		} else if warm.digest != r.first.digest && r.gateErr == nil {
			r.gateErr = errors.New("warm-up digest differs between set-ups")
		}
		return b, nil
	}
	b, err := setUp(lt)
	if err != nil {
		return nil, err
	}
	r.gateErr = b.check(r.first)

	runPasses := func(seconds float64, lt *layerTimes, times, allocs *[]float64) error {
		start := time.Now()
		every := time.Duration(seconds / setupReps * float64(time.Second))
		next := start.Add(every)
		for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
			if !o.trace && len(r.setups) < setupReps && !time.Now().Before(next) {
				if _, err := setUp(nil); err != nil {
					return err
				}
				runtime.GC() // drop that set-up's inputs before timing again
				next = next.Add(every)
			}
			a0 := heapAllocs()
			t0 := time.Now()
			res, err := b.pass(lt)
			d := time.Since(t0).Seconds()
			a1 := heapAllocs()
			r.attempted++
			if err != nil || res.digest != r.first.digest {
				r.failed++
				continue
			}
			*times = append(*times, d)
			if allocs != nil {
				*allocs = append(*allocs, float64(a1-a0))
			}
		}
		return nil
	}

	if !o.trace {
		if err := runPasses(o.seconds, nil, &r.passes, &r.allocs); err != nil {
			return nil, err
		}
	} else {
		if err := runPasses(o.seconds/2, nil, &r.passes, &r.allocs); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		gc0, cpu0 := gcCPU()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		err := runPasses(o.seconds/2, lt, &r.traced, nil)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		gc1, cpu1 := gcCPU()
		if cpu1 > cpu0 {
			r.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
		}
		prof, err := decodeProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		r.prof = prof
		r.lt = lt
	}
	r.correct = r.gateErr == nil && r.failed == 0 && len(r.passes) > 0
	return r, nil
}

var heapSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs returns the bytes allocated on the heap since the process
// started.
func heapAllocs() uint64 {
	rtmetrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

// gcCPU returns the runtime's estimate of CPU seconds spent on GC and in
// total since the process started.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// metricValues computes the metrics the run reports: the end-to-end set
// when untraced, the per-layer set when traced.
func metricValues(o options, r *runResult) map[string]float64 {
	f := r.first
	if !o.trace {
		fastest := minimum(r.passes)
		return map[string]float64{
			"records_per_s":     float64(f.records) / fastest,
			"requests_per_s":    float64(f.requests) / fastest,
			"alloc_mb_per_pass": median(r.allocs) / 1e6,
			"setup_s":           median(r.setups),
			"sim_makespan_ms":   float64(f.makespan) / 1e6,
		}
	}
	lt, c := r.lt, f.counts
	v := map[string]float64{
		"workload.synth_ns_per_record": perUnit(lt.synth.Nanoseconds(), lt.synthRecords),
		"metrics.summary_us":           perUnit(lt.summary.Nanoseconds(), lt.summaryCalls) / 1e3,
		"cluster.run_ns_per_epoch":     perUnit(lt.clusterRun.Nanoseconds(), lt.clusterEps),
		"runtime.gc_cpu_frac":          r.gcFrac,
		"bench.trace_overhead_frac":    minimum(r.traced)/minimum(r.passes) - 1,
		"sim.idle_ms":                  float64(c.idleNs) / 1e6,
		"its.stolen_ms":                float64(c.stolenNs) / 1e6,
		"kernel.major_faults":          float64(c.majorFaults),
		"cache.llc_misses":             float64(c.llcMisses),
		"cache.llc_miss_ratio":         ratio(c.llcMisses, c.llcAccesses),
		"prefetch.issued":              float64(c.prefetchIssued),
		"prefetch.useful_ratio":        ratio(c.pfUseful, c.prefetchIssued),
		"preexec.instrs":               float64(c.preexecInstrs),
		"preexec.valid_ratio":          ratio(c.preValid, c.preexecInstrs),
		"sched.context_switches":       float64(c.contextSwitches),
		"smp.steals":                   float64(c.steals),
		"cluster.epochs":               float64(f.epochs),
		"cluster.slo_attain.web":       c.sloAttainWeb,
	}
	if lt.smpNewCalls > 0 {
		v["smp.new_ms"] = float64(lt.smpNew.Nanoseconds()) / 1e6 / float64(lt.smpNewCalls)
		v["smp.run_ns_per_record"] = perUnit(lt.smpRun.Nanoseconds(), lt.smpRunRecs)
	} else {
		// cluster.Run calls smp.New and Run once per epoch, out of the
		// benchmark's reach: take their cumulative profile shares of the
		// traced pass time.
		var sum float64
		for _, d := range r.traced {
			sum += d
		}
		passes := float64(len(r.traced))
		v["smp.new_ms"] = r.prof.cumShare("itsim/internal/smp.New") * sum * 1e3 / (passes * float64(f.epochs))
		v["smp.run_ns_per_record"] = r.prof.cumShare("itsim/internal/smp.(*Machine).Run") * sum * 1e9 / (passes * float64(f.records))
	}
	for k, s := range r.prof.selfShares() {
		v["prof."+k] = s
	}
	return v
}

func perUnit(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable lines, then the result object as the
// last line.
func report(w io.Writer, o options, r *runResult) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	vals := metricValues(o, r)
	q := quartiles(r.passes)
	fmt.Fprintf(w, "workload %s  seed %d  trace %v\n", o.workload, o.seed, o.trace)
	fmt.Fprintf(w, "set-ups %d  median %.4f s\n", len(r.setups), median(r.setups))
	fmt.Fprintf(w, "passes %d  fastest %.4f s  median %.4f s  p75 %.4f s  failed %d/%d\n",
		len(r.passes), minimum(r.passes), median(r.passes), q[2], r.failed, r.attempted)
	if o.trace {
		tq := quartiles(r.traced)
		fmt.Fprintf(w, "traced passes %d  fastest %.4f s  median %.4f s  p75 %.4f s\n",
			len(r.traced), minimum(r.traced), median(r.traced), tq[2])
	}
	if r.gateErr != nil {
		fmt.Fprintf(w, "equivalence gate FAILED: %v\n", r.gateErr)
	} else {
		fmt.Fprintln(w, "equivalence gate ok")
	}
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		out.Metrics[d.name] = jsonMetric{Value: vals[d.name], Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Fprintf(w, "%-30s %16.6g %s\n", n, m.Value, m.Unit)
	}
	js, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(js))
	return err
}
