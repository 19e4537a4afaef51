// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§4). Each BenchmarkFigXX reports the figure's series as
// custom benchmark metrics and logs the full table once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's rows. BenchmarkSimulatorGrid measures the raw cost
// of one full 4-batch × 5-policy simulation; the figure benchmarks reuse a
// cached grid (the figures are deterministic post-processing of it).
//
// The canonical experiment scale for reported figures is 0.25 (see
// EXPERIMENTS.md); the benchmarks run at 0.1 to keep `go test -bench=.`
// fast while preserving every qualitative shape.
package itsim_test

import (
	"fmt"
	"sync"
	"testing"

	"itsim"
)

const benchScale = 0.1

var (
	gridOnce sync.Once
	gridRes  []itsim.GridResult
	gridErr  error
)

func grid(b *testing.B) []itsim.GridResult {
	gridOnce.Do(func() {
		gridRes, gridErr = itsim.RunGrid(itsim.Options{Scale: benchScale})
	})
	if gridErr != nil {
		b.Fatal(gridErr)
	}
	return gridRes
}

// BenchmarkSimulatorGrid measures one full batch×policy grid simulation.
func BenchmarkSimulatorGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := itsim.RunGrid(itsim.Options{Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// reportNormalized logs a figure's table and reports the series as metrics.
func reportNormalized(b *testing.B, metric func(*itsim.Run) float64, unit string) {
	g := grid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gr := range g {
			_ = gr.Normalized(metric, itsim.ITS)
		}
	}
	b.StopTimer()
	for _, gr := range g {
		n := gr.Normalized(metric, itsim.ITS)
		b.Logf("%-18s Async=%.2f Sync=%.2f Sync_Runahead=%.2f Sync_Prefetch=%.2f ITS=1.00",
			gr.Batch.Name, n[itsim.Async], n[itsim.Sync], n[itsim.SyncRunahead], n[itsim.SyncPrefetch])
		for _, k := range itsim.Policies() {
			b.ReportMetric(n[k], fmt.Sprintf("%s/%s_%s", unit, gr.Batch.Name, k))
		}
	}
}

// BenchmarkFig4aIdleTime regenerates Figure 4a: normalized total CPU idle
// (waiting) time per batch and policy (ITS = 1.00; paper: Async 2.58–2.95,
// Sync 1.2–1.75, Sync_Runahead 1.08–1.59, Sync_Prefetch 1.10–1.18).
func BenchmarkFig4aIdleTime(b *testing.B) {
	reportNormalized(b, itsim.MetricIdle, "x4a")
}

// BenchmarkFig4bPageFaults regenerates Figure 4b: page-fault counts. The
// paper's shape: prefetching policies cut faults sharply; ITS saves ≥61–65 %
// versus Async/Sync on the low-data-intensive batches.
func BenchmarkFig4bPageFaults(b *testing.B) {
	g := grid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gr := range g {
			for _, k := range itsim.Policies() {
				_ = gr.Runs[k].TotalMajorFaults()
			}
		}
	}
	b.StopTimer()
	for _, gr := range g {
		row := fmt.Sprintf("%-18s", gr.Batch.Name)
		for _, k := range itsim.Policies() {
			f := float64(gr.Runs[k].TotalMajorFaults()) / 100_000
			row += fmt.Sprintf(" %s=%.3f", k, f)
			b.ReportMetric(f, fmt.Sprintf("faults100k/%s_%s", gr.Batch.Name, k))
		}
		b.Log(row + "  (unit: 100 thousands)")
	}
}

// BenchmarkFig4cCacheMisses regenerates Figure 4c: CPU cache-miss counts.
// The paper's shape: Sync_Runahead lowest (it pre-executes on every fault),
// prefetch-only policies do not reduce misses.
func BenchmarkFig4cCacheMisses(b *testing.B) {
	g := grid(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gr := range g {
			for _, k := range itsim.Policies() {
				_ = gr.Runs[k].TotalLLCMisses()
			}
		}
	}
	b.StopTimer()
	for _, gr := range g {
		row := fmt.Sprintf("%-18s", gr.Batch.Name)
		for _, k := range itsim.Policies() {
			m := float64(gr.Runs[k].TotalLLCMisses()) / 1_000_000
			row += fmt.Sprintf(" %s=%.3f", k, m)
			b.ReportMetric(m, fmt.Sprintf("missesM/%s_%s", gr.Batch.Name, k))
		}
		b.Log(row + "  (unit: millions)")
	}
}

// BenchmarkFig5aTopFinish regenerates Figure 5a: normalized average finish
// time of the top-50 %-priority processes (paper: savings 14–75 % over the
// baselines, Async up to 4.1×).
func BenchmarkFig5aTopFinish(b *testing.B) {
	reportNormalized(b, itsim.MetricTopFinish, "x5a")
}

// BenchmarkFig5bBottomFinish regenerates Figure 5b: normalized average
// finish time of the bottom-50 %-priority processes (paper: every baseline
// ≥ 1, Async up to 2.35× — the sacrificed processes still finish earlier
// under ITS).
func BenchmarkFig5bBottomFinish(b *testing.B) {
	reportNormalized(b, itsim.MetricBottomFinish, "x5b")
}

// BenchmarkObservationIdleTime regenerates the §2.2 motivation experiment:
// total CPU idle time versus process count under plain synchronous I/O,
// normalized to the 2-process run (the paper reports >22 % idle and growth
// with the process count).
func BenchmarkObservationIdleTime(b *testing.B) {
	var pts []itsim.ObservationPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = itsim.RunObservation(itsim.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
	}
	base := pts[0].IdleTime
	for _, pt := range pts {
		norm := float64(pt.IdleTime) / float64(base)
		b.Logf("processes=%d idle=%v normalized=%.2f idleFraction=%.1f%%",
			pt.Processes, pt.IdleTime, norm, 100*pt.IdleFraction)
		b.ReportMetric(norm, fmt.Sprintf("normIdle/procs%d", pt.Processes))
	}
}

// BenchmarkAblationPrefetchDegree sweeps the ITS prefetch degree n
// (DESIGN.md ablation abl-prefetch-degree) on the 2_Data_Intensive batch.
func BenchmarkAblationPrefetchDegree(b *testing.B) {
	batch, err := itsim.BatchByName("2_Data_Intensive")
	if err != nil {
		b.Fatal(err)
	}
	for _, degree := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n%d", degree), func(b *testing.B) {
			var run *itsim.Run
			for i := 0; i < b.N; i++ {
				run, err = itsim.RunBatch(batch, itsim.ITS, itsim.Options{
					Scale: benchScale,
					ITS:   itsim.ITSConfig{PrefetchDegree: degree},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(run.TotalIdle().Seconds()*1e3, "idleMs")
			b.ReportMetric(float64(run.TotalMajorFaults()), "faults")
			b.ReportMetric(100*run.PrefetchAccuracy(), "pfAccuracy%")
		})
	}
}

// BenchmarkAblationSelfSacrificing compares full ITS against ITS without
// the self-sacrificing thread (§3.3) on the most contended batch, and
// against ITS reduced to its prefetcher alone (neither self-sacrificing nor
// pre-execution).
func BenchmarkAblationSelfSacrificing(b *testing.B) {
	batch, err := itsim.BatchByName("3_Data_Intensive")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		its  itsim.ITSConfig
	}{
		{"full", itsim.ITSConfig{}},
		{"noSelfSacrificing", itsim.ITSConfig{DisableSelfSacrificing: true}},
		{"prefetchOnly", itsim.ITSConfig{DisableSelfSacrificing: true, DisablePreExecute: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var run *itsim.Run
			for i := 0; i < b.N; i++ {
				run, err = itsim.RunBatch(batch, itsim.ITS, itsim.Options{Scale: benchScale, ITS: cfg.its})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(run.TotalIdle().Seconds()*1e3, "idleMs")
			b.ReportMetric(float64(run.TotalMajorFaults()), "faults")
			b.ReportMetric(run.TopHalfAvgFinish().Seconds()*1e3, "top50Ms")
		})
	}
}

// BenchmarkAblationPreexecCache ablates the fault-aware pre-execute policy
// (§3.4.2): disabling it or prefetching entirely, and sweeping the LLC
// fraction carved out as the pre-execute cache (the paper fixes one half).
func BenchmarkAblationPreexecCache(b *testing.B) {
	batch, err := itsim.BatchByName("2_Data_Intensive")
	if err != nil {
		b.Fatal(err)
	}
	runOne := func(b *testing.B, opts itsim.Options) {
		var run *itsim.Run
		for i := 0; i < b.N; i++ {
			run, err = itsim.RunBatch(batch, itsim.ITS, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(run.TotalIdle().Seconds()*1e3, "idleMs")
		b.ReportMetric(float64(run.TotalLLCMisses())/1e6, "missesM")
	}
	for _, cfg := range []struct {
		name string
		its  itsim.ITSConfig
	}{
		{"full", itsim.ITSConfig{}},
		{"noPreexec", itsim.ITSConfig{DisablePreExecute: true}},
		{"noPrefetch", itsim.ITSConfig{DisablePrefetch: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			runOne(b, itsim.Options{Scale: benchScale, ITS: cfg.its})
		})
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		b.Run(fmt.Sprintf("pxCache%.0f%%", 100*frac), func(b *testing.B) {
			cfg := itsim.DefaultMachineConfig()
			cfg.MinSlice, cfg.MaxSlice = itsim.SliceRange(benchScale)
			cfg.PreExecCacheFraction = frac
			runOne(b, itsim.Options{Scale: benchScale, Machine: &cfg})
		})
	}
}

// BenchmarkCrossoverHugeIO sweeps the swap-in unit from base pages toward
// huge-page-style clusters, reporting the Sync and Async makespans. The
// paper's §1 motivation: synchronous mode is promising only while the I/O
// unit stays microsecond-scale; "larger I/O sizes like huge page
// management" hand the win back to asynchronous mode.
func BenchmarkCrossoverHugeIO(b *testing.B) {
	var pts []itsim.CrossoverPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = itsim.RunCrossover(itsim.Options{Scale: 0.05}, []int{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.Logf("unit=%dKiB sync=%v async=%v winner=%s",
			pt.IOBytes/1024, pt.SyncMakespan, pt.AsyncMakespan, pt.Winner)
		b.ReportMetric(pt.SyncMakespan.Seconds()*1e3, fmt.Sprintf("syncMs/unit%dKiB", pt.IOBytes/1024))
		b.ReportMetric(pt.AsyncMakespan.Seconds()*1e3, fmt.Sprintf("asyncMs/unit%dKiB", pt.IOBytes/1024))
	}
}

// BenchmarkSensitivityPriorityDraws re-runs 1_Data_Intensive across random
// priority draws: the Figure 4a ordering (every baseline ≥ ITS) must be a
// property of the design, not of the pinned draw the figures use.
func BenchmarkSensitivityPriorityDraws(b *testing.B) {
	var res []itsim.SensitivityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = itsim.RunSensitivity("1_Data_Intensive", 5, itsim.Options{Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.Logf("%-14s normIdle min=%.2f mean=%.2f max=%.2f", r.Policy, r.Min, r.Mean, r.Max)
		b.ReportMetric(r.Mean, fmt.Sprintf("meanNormIdle/%s", r.Policy))
	}
}

// BenchmarkAblationStrictPriority re-runs the grid under true SCHED_RR
// semantics (strict priority dispatch) instead of the paper's effective
// single-queue NICE round-robin, reporting how the headline ratio moves.
func BenchmarkAblationStrictPriority(b *testing.B) {
	batch, err := itsim.BatchByName("1_Data_Intensive")
	if err != nil {
		b.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		name := "niceRR"
		if strict {
			name = "strictPriority"
		}
		b.Run(name, func(b *testing.B) {
			cfg := itsim.DefaultMachineConfig()
			cfg.MinSlice, cfg.MaxSlice = itsim.SliceRange(benchScale)
			cfg.StrictPriority = strict
			opts := itsim.Options{Scale: benchScale, Machine: &cfg}
			var its, syn *itsim.Run
			for i := 0; i < b.N; i++ {
				if its, err = itsim.RunBatch(batch, itsim.ITS, opts); err != nil {
					b.Fatal(err)
				}
				if syn, err = itsim.RunBatch(batch, itsim.Sync, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(syn.TotalIdle().Seconds()/its.TotalIdle().Seconds(), "syncVsITSIdle")
			b.ReportMetric(syn.TopHalfAvgFinish().Seconds()/its.TopHalfAvgFinish().Seconds(), "syncVsITSTop50")
		})
	}
}
