package smp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"itsim/internal/cache"
	"itsim/internal/machine"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/workload"
)

// recycleEpoch is one run in a sequence executed on one simulated machine.
type recycleEpoch struct {
	kind    policy.Kind
	cores   int
	dram    float64
	faulty  bool
	benches []string
	// reuse says whether the LLC's geometry matches the previous epoch's,
	// so Next must recycle it rather than allocate.
	reuse bool
}

// recycleSeq varies everything a fleet epoch can vary: process count and
// benchmark mix, DRAM sizing, device faults, and the policy and core count
// that set the LLC / pre-execute partition (a change forces fresh caches).
var recycleSeq = []recycleEpoch{
	{policy.ITS, 1, 0, false, []string{workload.PageRank, workload.Caffe, workload.RandomWalk}, false},
	{policy.ITS, 1, 0.5, true, []string{workload.Xz, workload.Graph500}, true},
	{policy.Sync, 1, 0, false, []string{workload.Wrf, workload.Blender, workload.DeepSjeng, workload.CommDetect}, false},
	{policy.Sync, 1, 0.9, true, []string{workload.RandomWalk}, true},
	{policy.ITS, 2, 0.6, false, []string{workload.PageRank, workload.Caffe, workload.Xz}, false},
	// Same shared-LLC ways as at 2 cores, but a carve-out twice as wide:
	// the LLC is recycled, core 0's pre-execute cache is not.
	{policy.ITS, 1, 0, true, []string{workload.Caffe, workload.Graph500}, true},
	{policy.ITS, 1, 0, false, []string{workload.RandomWalk, workload.PageRank}, true},
}

// recycleArgs builds epoch i's platform configuration and process specs,
// fresh on every call (generators are stateful).
func recycleArgs(t *testing.T, i int, e recycleEpoch) (machine.Config, []machine.ProcessSpec) {
	t.Helper()
	cfg := testConfig(e.cores)
	if e.faulty {
		cfg = faultyConfig(e.cores)
		cfg.Fault.Seed += uint64(i)
	}
	if e.dram > 0 {
		cfg.DRAMRatio = e.dram
	}
	specs := make([]machine.ProcessSpec, len(e.benches))
	for j, b := range e.benches {
		specs[j] = machine.ProcessSpec{
			Name:     b,
			Gen:      workload.MustGenerator(b, 0.01),
			Priority: 1 + (i+j)%3,
			BaseVA:   workload.BaseVA,
		}
	}
	return cfg, specs
}

// TestNextMatchesNew runs one sequence of epochs on a single recycled
// machine (each built by Next from the last) and on a fresh smp.New machine
// per epoch: every epoch's metrics and the whole JSONL trace, gauges
// included, must be byte-identical, and Next must actually reuse the LLC
// whenever its geometry is unchanged.
func TestNextMatchesNew(t *testing.T) {
	// Gauges sample cache occupancy, so a recycled cache that kept lines
	// would show in the trace even where the run's metrics cannot see it.
	const gaugeEvery = 10 * sim.Microsecond
	var recBuf, freshBuf bytes.Buffer
	recSink, freshSink := obs.NewJSONL(&recBuf), obs.NewJSONL(&freshBuf)
	recTrc, freshTrc := obs.NewTracer(recSink, obs.Filter{}), obs.NewTracer(freshSink, obs.Filter{})

	var rec *smp.Machine
	for i, e := range recycleSeq {
		name := fmt.Sprintf("m0/e%d", i)
		cfg, specs := recycleArgs(t, i, e)
		var prevLLC *cache.Cache
		if rec != nil {
			prevLLC = rec.LLC()
		}
		next, err := rec.Next(cfg, factory(e.kind), name, specs)
		if err != nil {
			t.Fatalf("epoch %d: Next: %v", i, err)
		}
		if reused := next.LLC() == prevLLC; reused != e.reuse {
			t.Errorf("epoch %d: LLC reused = %v, want %v", i, reused, e.reuse)
		}
		rec = next
		rec.Instrument(recTrc, gaugeEvery)
		gotRun, err := rec.Run()
		if err != nil {
			t.Fatalf("epoch %d: recycled run: %v", i, err)
		}

		cfg, specs = recycleArgs(t, i, e)
		fresh, err := smp.New(cfg, factory(e.kind), name, specs)
		if err != nil {
			t.Fatalf("epoch %d: New: %v", i, err)
		}
		fresh.Instrument(freshTrc, gaugeEvery)
		wantRun, err := fresh.Run()
		if err != nil {
			t.Fatalf("epoch %d: fresh run: %v", i, err)
		}

		got, err := json.Marshal(gotRun)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wantRun)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("epoch %d (%v, %d cores, %v): recycled run differs from a fresh one\n got: %s\nwant: %s",
				i, e.kind, e.cores, e.benches, got, want)
		}
	}
	if err := recSink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := freshSink.Close(); err != nil {
		t.Fatal(err)
	}
	if recBuf.Len() == 0 || !bytes.Equal(recBuf.Bytes(), freshBuf.Bytes()) {
		t.Errorf("recycled trace (%d bytes) differs from fresh trace (%d bytes)", recBuf.Len(), freshBuf.Len())
	}
}
