package metrics

// BucketCount is one non-empty histogram bucket in a snapshot. UpperNs is
// the bucket's inclusive upper bound in nanoseconds; -1 marks the overflow
// bucket.
//
//itslint:frozen
type BucketCount struct {
	UpperNs int64  `json:"upper_ns"`
	Count   uint64 `json:"count"`
}

// HistogramSnapshot is the JSON-serializable form of a Histogram, including
// the full (non-empty) bucket counts so downstream tooling can re-derive any
// quantile.
//
//itslint:frozen
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	MeanNs  int64         `json:"mean_ns"`
	P50Ns   int64         `json:"p50_ns"`
	P99Ns   int64         `json:"p99_ns"`
	MaxNs   int64         `json:"max_ns"`
	SumNs   int64         `json:"sum_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot captures the distribution for serialization.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.total,
		MeanNs: int64(h.Mean()),
		P50Ns:  int64(h.Quantile(0.5)),
		P99Ns:  int64(h.Quantile(0.99)),
		MaxNs:  int64(h.max),
		SumNs:  int64(h.sum),
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		upper := int64(-1)
		if i < len(h.bounds) {
			upper = int64(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, BucketCount{UpperNs: upper, Count: c})
	}
	return s
}

// Summary is the JSON-serializable digest of one run: the aggregate Figure
// 4/5 quantities, both latency distributions, and the raw per-process
// counters. Durations are virtual nanoseconds.
//
//itslint:frozen
type Summary struct {
	Policy string `json:"policy"`
	Batch  string `json:"batch"`

	MakespanNs          int64 `json:"makespan_ns"`
	TotalIdleNs         int64 `json:"total_idle_ns"`
	SchedulerIdleNs     int64 `json:"scheduler_idle_ns"`
	ContextSwitchTimeNs int64 `json:"context_switch_time_ns"`
	FaultHandlerTimeNs  int64 `json:"fault_handler_time_ns"`
	TotalStolenNs       int64 `json:"total_stolen_ns"`

	MajorFaults     uint64 `json:"major_faults"`
	MinorFaults     uint64 `json:"minor_faults"`
	LLCMisses       uint64 `json:"llc_misses"`
	ContextSwitches uint64 `json:"context_switches"`

	PrefetchAccuracy float64 `json:"prefetch_accuracy"`

	AvgFinishNs           int64 `json:"avg_finish_ns"`
	TopHalfAvgFinishNs    int64 `json:"top_half_avg_finish_ns"`
	BottomHalfAvgFinishNs int64 `json:"bottom_half_avg_finish_ns"`

	SyncWait HistogramSnapshot `json:"sync_wait"`
	Blocked  HistogramSnapshot `json:"blocked"`

	// DemotedWaits / PrefetchThrottled / Injection report the
	// graceful-degradation machinery; all omitted when zero/nil so
	// fault-free summaries keep the historical byte layout.
	DemotedWaits      uint64          `json:"demoted_waits,omitempty"`
	PrefetchThrottled uint64          `json:"prefetch_throttled,omitempty"`
	Injection         *InjectionStats `json:"fault_injection,omitempty"`

	// Cores carries per-core counters on multi-core runs (absent on
	// one-core runs).
	Cores []*Core `json:"cores,omitempty"`

	Procs []*Process `json:"procs"`
}

// Summary builds the serializable digest of the run.
func (r *Run) Summary() Summary {
	return Summary{
		Policy:                r.Policy,
		Batch:                 r.Batch,
		MakespanNs:            int64(r.Makespan),
		TotalIdleNs:           int64(r.TotalIdle()),
		SchedulerIdleNs:       int64(r.SchedulerIdle),
		ContextSwitchTimeNs:   int64(r.ContextSwitchTime),
		FaultHandlerTimeNs:    int64(r.FaultHandlerTime),
		TotalStolenNs:         int64(r.TotalStolen()),
		MajorFaults:           r.TotalMajorFaults(),
		MinorFaults:           r.TotalMinorFaults(),
		LLCMisses:             r.TotalLLCMisses(),
		ContextSwitches:       r.TotalContextSwitches(),
		PrefetchAccuracy:      r.PrefetchAccuracy(),
		AvgFinishNs:           int64(r.AvgFinish()),
		TopHalfAvgFinishNs:    int64(r.TopHalfAvgFinish()),
		BottomHalfAvgFinishNs: int64(r.BottomHalfAvgFinish()),
		SyncWait:              r.SyncWaitHist.Snapshot(),
		Blocked:               r.BlockedHist.Snapshot(),
		DemotedWaits:          r.TotalDemotions(),
		PrefetchThrottled:     r.TotalPrefetchThrottled(),
		Injection:             r.Injection,
		Cores:                 r.Cores,
		Procs:                 r.Procs,
	}
}
