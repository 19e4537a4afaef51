package machine

import (
	"testing"
	"testing/quick"

	"itsim/internal/exec"
	"itsim/internal/kernel"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/trace"
	"itsim/internal/workload"
)

// testConfig returns a small platform so tests run in milliseconds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.LLCSize = 256 << 10
	cfg.L1Size = 8 << 10
	cfg.MinSlice = 20 * sim.Microsecond
	cfg.MaxSlice = 200 * sim.Microsecond
	cfg.MaxSimTime = 10 * sim.Second
	return cfg
}

// newMachine builds the single-core machine for the specs: a one-core smp
// machine whose only core runs pol.
func newMachine(tb testing.TB, cfg Config, pol policy.Policy, batchName string, specs []ProcessSpec) *smp.Machine {
	tb.Helper()
	m, err := smp.New(cfg, func() policy.Policy { return pol }, batchName, specs)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// seqGen builds a purely sequential trace: n accesses at the given stride.
func seqGen(name string, n int, stride uint64) trace.Generator {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			Addr: 0x10_0000 + uint64(i)*stride,
			Gap:  4, Size: 8,
			Kind: trace.Load,
			Dst:  uint8(i % 8), Src: uint8((i + 1) % 8),
		}
	}
	g := trace.NewSliceGenerator(name, recs)
	g.SetFootprint(uint64(n)*stride + 0x10_0000)
	return g
}

func specFor(gens ...trace.Generator) []ProcessSpec {
	specs := make([]ProcessSpec, len(gens))
	for i, g := range gens {
		specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: i + 1}
	}
	return specs
}

func TestSingleProcessCompletes(t *testing.T) {
	for _, kind := range policy.Kinds() {
		m := newMachine(t, testConfig(), policy.New(kind), "t", specFor(seqGen("a", 5000, 64)))
		run, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(run.Procs) != 1 || !run.Procs[0].Finished {
			t.Fatalf("%v: process did not finish", kind)
		}
		if run.Procs[0].FinishTime <= 0 || run.Makespan < run.Procs[0].FinishTime {
			t.Fatalf("%v: times inconsistent: %v / %v", kind, run.Procs[0].FinishTime, run.Makespan)
		}
		if run.Procs[0].Instructions == 0 {
			t.Fatalf("%v: no instructions recorded", kind)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *metrics_run {
		m := newMachine(t, testConfig(), policy.New(policy.ITS), "t",
			specFor(seqGen("a", 3000, 64), seqGen("b", 3000, 128)))
		run, err := m.Run()
		if err != nil {
			panic(err)
		}
		return &metrics_run{run.Makespan, run.TotalIdle(), run.TotalMajorFaults(), run.TotalLLCMisses()}
	}
	a, b := mk(), mk()
	if *a != *b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

type metrics_run struct {
	makespan sim.Time
	idle     sim.Time
	faults   uint64
	misses   uint64
}

func TestWorkloadBatchUnderEveryPolicy(t *testing.T) {
	b := workload.Batches()[1] // 1_Data_Intensive
	for _, kind := range policy.Kinds() {
		gens := b.Generators(0.01)
		specs := make([]ProcessSpec, len(gens))
		for i, g := range gens {
			specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		m := newMachine(t, testConfig(), policy.New(kind), b.Name, specs)
		run, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for _, p := range run.Procs {
			if !p.Finished {
				t.Fatalf("%v: %s did not finish", kind, p.Name)
			}
		}
		if run.TotalIdle() <= 0 {
			t.Fatalf("%v: zero idle time", kind)
		}
	}
}

func TestAsyncBlocksAndSwitches(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.01)
	specs := specFor(gens[0], gens[1])
	m := newMachine(t, testConfig(), policy.New(policy.Async), "t", specs)
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalMajorFaults() == 0 {
		t.Fatal("no faults — test workload too small")
	}
	if run.TotalContextSwitches() == 0 || run.ContextSwitchTime == 0 {
		t.Fatal("async faults produced no context switches")
	}
	// Every async fault pays at least one switch.
	if run.TotalContextSwitches() < run.TotalMajorFaults() {
		t.Fatalf("switches %d < faults %d", run.TotalContextSwitches(), run.TotalMajorFaults())
	}
	var blocked sim.Time
	for _, p := range run.Procs {
		blocked += p.BlockedWait
	}
	if blocked == 0 {
		t.Fatal("async faults recorded no blocked wait")
	}
}

func TestSyncBusyWaits(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.01)
	m := newMachine(t, testConfig(), policy.New(policy.Sync), "t", specFor(gens[0], gens[1]))
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var storage sim.Time
	for _, p := range run.Procs {
		storage += p.StorageWait
		if p.BlockedWait != 0 {
			t.Fatal("sync policy produced blocked waits")
		}
	}
	if storage == 0 {
		t.Fatal("sync faults recorded no storage wait")
	}
	if run.SchedulerIdle != 0 {
		t.Fatal("sync run left the scheduler idle")
	}
}

func TestITSPrefetchesAndSteals(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.02)
	specs := make([]ProcessSpec, 3)
	for i := 0; i < 3; i++ {
		specs[i] = ProcessSpec{Name: gens[i].Name(), Gen: gens[i], Priority: i + 1, BaseVA: workload.BaseVA}
	}
	m := newMachine(t, testConfig(), policy.New(policy.ITS), "t", specs)
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var issued, useful uint64
	var stolen sim.Time
	for _, p := range run.Procs {
		issued += p.PrefetchIssued
		useful += p.PrefetchUseful
		stolen += p.StolenPrefetch + p.StolenPreexec
	}
	if issued == 0 {
		t.Fatal("ITS issued no prefetches")
	}
	if useful > issued {
		t.Fatalf("useful %d > issued %d", useful, issued)
	}
	if stolen == 0 {
		t.Fatal("ITS stole no busy-wait time")
	}
	if run.TotalMinorFaults() == 0 {
		t.Fatal("no prefetched page was ever hit (no minor faults)")
	}
}

func TestITSBeatsSyncOnIdle(t *testing.T) {
	// The headline result at miniature scale: ITS ≤ Sync on total idle.
	b := workload.Batches()[1]
	mkRun := func(kind policy.Kind) sim.Time {
		gens := b.Generators(0.02)
		specs := make([]ProcessSpec, len(gens))
		for i, g := range gens {
			specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		m := newMachine(t, testConfig(), policy.New(kind), b.Name, specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return run.TotalIdle()
	}
	its := mkRun(policy.ITS)
	syn := mkRun(policy.Sync)
	if its >= syn {
		t.Fatalf("ITS idle %v not below Sync idle %v", its, syn)
	}
}

func TestRunaheadCutsCacheMisses(t *testing.T) {
	b := workload.Batches()[0]
	mkRun := func(kind policy.Kind) uint64 {
		gens := b.Generators(0.02)
		specs := make([]ProcessSpec, len(gens))
		for i, g := range gens {
			specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		cfg := testConfig()
		cfg.LLCSize = 1 << 20
		m := newMachine(t, cfg, policy.New(kind), b.Name, specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return run.TotalLLCMisses()
	}
	ra := mkRun(policy.SyncRunahead)
	syn := mkRun(policy.Sync)
	if ra >= syn {
		t.Fatalf("Runahead misses %d not below Sync misses %d", ra, syn)
	}
}

func TestWarmStartReducesColdFaults(t *testing.T) {
	b := workload.Batches()[0]
	mkRun := func(warm float64) uint64 {
		gens := b.Generators(0.01)
		specs := make([]ProcessSpec, len(gens))
		for i, g := range gens {
			specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		cfg := testConfig()
		cfg.WarmFraction = warm
		m := newMachine(t, cfg, policy.New(policy.Sync), b.Name, specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return run.TotalMajorFaults()
	}
	warm := mkRun(0.85)
	cold := mkRun(-1)
	if warm >= cold {
		t.Fatalf("warm start did not reduce faults: warm=%d cold=%d", warm, cold)
	}
}

func TestMaxSimTimeAborts(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSimTime = 10 * sim.Microsecond
	m := newMachine(t, cfg, policy.New(policy.Sync), "t", specFor(seqGen("a", 500000, 64)))
	if _, err := m.Run(); err == nil {
		t.Fatal("MaxSimTime exceeded without error")
	}
}

func TestTaggedAddressesIsolateProcesses(t *testing.T) {
	if exec.Tagged(0, 0x1000) == exec.Tagged(1, 0x1000) {
		t.Fatal("same VA in different processes aliases in the cache")
	}
	if exec.Tagged(3, 0x1000)&(1<<48-1) != 0x1000 {
		t.Fatal("tagging corrupted the address bits")
	}
}

func TestContextSwitchCostCharged(t *testing.T) {
	// Two pure-compute processes with tiny slices must context switch and
	// pay 7 µs each time.
	cfg := testConfig()
	cfg.MinSlice = 20 * sim.Microsecond
	cfg.MaxSlice = 20 * sim.Microsecond
	m := newMachine(t, cfg, policy.New(policy.Sync), "t",
		specFor(seqGen("a", 2000, 8), seqGen("b", 2000, 8)))
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalContextSwitches() == 0 {
		t.Fatal("no slice-expiry switches")
	}
	if run.ContextSwitchTime != sim.Time(run.TotalContextSwitches())*kernel.ContextSwitchCost {
		t.Fatalf("switch time %v inconsistent with %d switches",
			run.ContextSwitchTime, run.TotalContextSwitches())
	}
}

func TestFinishTimesOrderedByCompletion(t *testing.T) {
	m := newMachine(t, testConfig(), policy.New(policy.Sync), "t",
		specFor(seqGen("short", 1000, 64), seqGen("long", 20000, 64)))
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Procs[0].FinishTime >= run.Procs[1].FinishTime {
		t.Fatalf("short process finished after long one: %v vs %v",
			run.Procs[0].FinishTime, run.Procs[1].FinishTime)
	}
	if run.Makespan != run.Procs[1].FinishTime {
		t.Fatalf("makespan %v != last finish %v", run.Makespan, run.Procs[1].FinishTime)
	}
}

func TestRecoveryInterruptVsPolling(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.01)
	mkRun := func(poll sim.Time) *run2 {
		cfg := testConfig()
		cfg.RecoveryPoll = poll
		specs := []ProcessSpec{
			{Name: gens[0].Name(), Gen: gens[0], Priority: 1, BaseVA: workload.BaseVA},
		}
		m := newMachine(t, cfg, policy.New(policy.SyncRunahead), "t", specs)
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var rec sim.Time
		for _, p := range r.Procs {
			rec += p.RecoveryOverhead
		}
		return &run2{rec, r.Makespan}
	}
	intr := mkRun(0)
	poll := mkRun(2 * sim.Microsecond)
	if intr.recovery <= 0 {
		t.Fatal("interrupt mode charged no recovery overhead")
	}
	// A 2 µs polling timer overshoots ~1 µs per episode on average — far
	// more than the 300 ns interrupt — so polling must cost more overall.
	if poll.recovery <= intr.recovery {
		t.Fatalf("polling recovery %v not above interrupt %v", poll.recovery, intr.recovery)
	}
	if poll.makespan <= intr.makespan {
		t.Fatalf("polling makespan %v not above interrupt %v", poll.makespan, intr.makespan)
	}
}

type run2 struct {
	recovery sim.Time
	makespan sim.Time
}

func TestFaultOnInflightPrefetchJoins(t *testing.T) {
	// A fault on a page whose prefetch is already in flight must wait for
	// the existing DMA, not start a second one: device swap-in count stays
	// equal to distinct pages fetched.
	gens := workload.Batches()[0].Generators(0.01)
	specs := []ProcessSpec{
		{Name: gens[0].Name(), Gen: gens[0], Priority: 2, BaseVA: workload.BaseVA},
		{Name: gens[1].Name(), Gen: gens[1], Priority: 1, BaseVA: workload.BaseVA},
	}
	m := newMachine(t, testConfig(), policy.New(policy.ITS), "t", specs)
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	krnStats := m.Kernel().Stats()
	devStats := m.Kernel().Device().Stats()
	if devStats.Reads != krnStats.SwapIns {
		t.Fatalf("device reads %d != kernel swap-ins %d (duplicate DMA?)", devStats.Reads, krnStats.SwapIns)
	}
	_ = run
}

func TestInstructionConservation(t *testing.T) {
	// Every instruction of every trace is executed exactly once, whatever
	// the policy does around faults.
	for _, kind := range policy.Kinds() {
		gens := workload.Batches()[0].Generators(0.01)
		var want uint64
		for _, g := range gens[:3] {
			st := trace.Analyze(g)
			want += st.Instrs
		}
		specs := make([]ProcessSpec, 3)
		for i := 0; i < 3; i++ {
			specs[i] = ProcessSpec{Name: gens[i].Name(), Gen: gens[i], Priority: i + 1, BaseVA: workload.BaseVA}
		}
		m := newMachine(t, testConfig(), policy.New(kind), "t", specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for _, p := range run.Procs {
			got += p.Instructions
		}
		if got != want {
			t.Fatalf("%v: executed %d instructions, traces contain %d", kind, got, want)
		}
	}
}

func TestIdleNeverExceedsAggregateRuntime(t *testing.T) {
	gens := workload.Batches()[3].Generators(0.01)
	specs := make([]ProcessSpec, len(gens))
	for i, g := range gens {
		specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: i + 1, BaseVA: workload.BaseVA}
	}
	for _, kind := range policy.Kinds() {
		for i := range specs {
			specs[i].Gen.Reset()
		}
		m := newMachine(t, testConfig(), policy.New(kind), "t", specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Aggregate per-process stall cannot exceed processes × makespan.
		if run.TotalIdle() > run.Makespan*sim.Time(len(specs)) {
			t.Fatalf("%v: idle %v exceeds %d×makespan %v", kind, run.TotalIdle(), len(specs), run.Makespan)
		}
	}
}

func TestTLBModeChargesMisses(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.01)
	mkRun := func(tlbEntries int) *metrics_run {
		cfg := testConfig()
		cfg.TLBEntries = tlbEntries
		specs := []ProcessSpec{
			{Name: gens[0].Name(), Gen: gens[0], Priority: 2, BaseVA: workload.BaseVA},
			{Name: gens[1].Name(), Gen: gens[1], Priority: 1, BaseVA: workload.BaseVA},
		}
		for i := range specs {
			specs[i].Gen.Reset()
		}
		m := newMachine(t, cfg, policy.New(policy.Sync), "t", specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return &metrics_run{run.Makespan, run.TotalIdle(), run.TotalMajorFaults(), run.TotalLLCMisses()}
	}
	tiny := mkRun(16)  // thrashing TLB
	big := mkRun(4096) // ample TLB
	off := mkRun(0)    // constant-pollution mode
	if tiny.idle <= big.idle {
		t.Fatalf("tiny TLB idle %v not above big TLB idle %v", tiny.idle, big.idle)
	}
	if off.faults != tiny.faults || off.faults != big.faults {
		t.Fatalf("TLB model changed fault counts: %d/%d/%d", off.faults, tiny.faults, big.faults)
	}
}

func TestSpinBlockHybridBehaviour(t *testing.T) {
	gens := workload.Batches()[1].Generators(0.01)
	specs := make([]ProcessSpec, 4)
	for i := 0; i < 4; i++ {
		specs[i] = ProcessSpec{Name: gens[i].Name(), Gen: gens[i], Priority: i + 1, BaseVA: workload.BaseVA}
	}
	mkRun := func(pol policy.Policy) *metrics.Run {
		for i := range specs {
			specs[i].Gen.Reset()
		}
		m := newMachine(t, testConfig(), pol, "t", specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	// A generous threshold (device read ~3 µs < 7 µs) behaves like Sync:
	// (almost) no blocking.
	generous := mkRun(policy.NewSpinBlock(50 * sim.Microsecond))
	var blocked sim.Time
	for _, p := range generous.Procs {
		blocked += p.BlockedWait
	}
	if frac := float64(blocked) / float64(generous.Makespan); frac > 0.2 {
		t.Fatalf("generous spin threshold still blocked %.0f%% of the time", 100*frac)
	}
	// A sub-I/O threshold must fall back to blocking on essentially every
	// fault that outlives it.
	stingy := mkRun(policy.NewSpinBlock(500 * sim.Nanosecond))
	blocked = 0
	for _, p := range stingy.Procs {
		blocked += p.BlockedWait
	}
	if blocked == 0 {
		t.Fatal("stingy spin threshold never blocked")
	}
	if stingy.TotalContextSwitches() <= generous.TotalContextSwitches() {
		t.Fatalf("stingy threshold switched %d times, generous %d",
			stingy.TotalContextSwitches(), generous.TotalContextSwitches())
	}
}

// TestTimeConservation is the machine's strongest invariant: every
// nanosecond of the makespan is attributed exactly once — to some process's
// CPU occupancy, to context switching, or to scheduler idle.
func TestTimeConservation(t *testing.T) {
	for _, kind := range policy.Kinds() {
		b := workload.Batches()[2]
		gens := b.Generators(0.01)
		specs := make([]ProcessSpec, len(gens))
		for i, g := range gens {
			specs[i] = ProcessSpec{Name: g.Name(), Gen: g, Priority: b.Priorities[i], BaseVA: workload.BaseVA}
		}
		m := newMachine(t, testConfig(), policy.New(kind), b.Name, specs)
		run, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var cpu sim.Time
		for _, p := range run.Procs {
			cpu += p.CPUTime
		}
		// Switch time includes the pollution tail, which advance() does
		// not attribute to a process (advance(nil, ...)).
		accounted := cpu + run.ContextSwitchTime + run.SchedulerIdle +
			sim.Time(run.TotalContextSwitches())*kernel.SwitchPollutionCost
		if accounted != run.Makespan {
			t.Fatalf("%v: accounted %v != makespan %v (Δ %v)",
				kind, accounted, run.Makespan, run.Makespan-accounted)
		}
	}
}

func TestPreExecCacheFractionPartitionsWays(t *testing.T) {
	gens := workload.Batches()[0].Generators(0.01)
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		cfg := testConfig()
		cfg.LLCSize = 1 << 20
		cfg.PreExecCacheFraction = frac
		specs := []ProcessSpec{{Name: gens[0].Name(), Gen: gens[0], Priority: 1, BaseVA: workload.BaseVA}}
		specs[0].Gen.Reset()
		m := newMachine(t, cfg, policy.New(policy.SyncRunahead), "t", specs)
		got := m.LLC().Config()
		pxCfg := m.PreExecCaches()[0].Config()
		if got.SizeBytes+pxCfg.SizeBytes != cfg.LLCSize {
			t.Fatalf("frac %v: LLC %d + px %d != %d", frac, got.SizeBytes, pxCfg.SizeBytes, cfg.LLCSize)
		}
		if got.Ways+pxCfg.Ways != cfg.LLCWays {
			t.Fatalf("frac %v: ways %d + %d != %d", frac, got.Ways, pxCfg.Ways, cfg.LLCWays)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
	}
}

// TestRandomTracesProperty drives every policy with small random traces:
// the machine must terminate, conserve instructions, and keep metrics sane.
func TestRandomTracesProperty(t *testing.T) {
	f := func(seeds []uint16, polIdx uint8) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 3 {
			seeds = seeds[:3]
		}
		kind := policy.Kinds()[int(polIdx)%len(policy.Kinds())]
		var specs []ProcessSpec
		var want uint64
		for i, seed := range seeds {
			p := workload.Profile{
				Name:           "rnd",
				FootprintBytes: uint64(64+seed%512) * 4096,
				Records:        2000 + int(seed)%3000,
				PSeq:           float64(seed%10) / 10 * 0.8,
				PHot:           0.1,
				StoreFrac:      0.3,
				GapMean:        1 + int(seed)%20,
				Seed:           uint64(seed) + 1,
			}
			g := workload.New(p)
			st := trace.Analyze(g)
			want += st.Instrs
			specs = append(specs, ProcessSpec{
				Name: "rnd", Gen: g, Priority: i + 1, BaseVA: workload.BaseVA,
			})
		}
		m := newMachine(t, testConfig(), policy.New(kind), "prop", specs)
		run, err := m.Run()
		if err != nil {
			return false
		}
		var got uint64
		for _, p := range run.Procs {
			if !p.Finished || p.FinishTime <= 0 {
				return false
			}
			got += p.Instructions
		}
		return got == want && run.TotalIdle() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
