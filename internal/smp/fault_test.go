package smp_test

import (
	"testing"

	"itsim/internal/fault"
	"itsim/internal/machine"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
)

// faultyConfig is testConfig with a misbehaving device: tail spikes, channel
// stalls and transient DMA failures all enabled.
func faultyConfig(cores int) machine.Config {
	cfg := testConfig(cores)
	cfg.Fault = fault.Config{
		Seed:        42,
		TailProb:    0.05,
		TailMult:    8,
		StallProb:   0.01,
		StallWindow: 30 * sim.Microsecond,
		DMAFailProb: 0.02,
		RetryMax:    3,
	}
	return cfg
}

// Same seed + fault config ⇒ byte-identical summaries on repeat runs,
// injection counters included.
func TestFaultDeterminism(t *testing.T) {
	run := func(cores int) string {
		m, err := smp.New(faultyConfig(cores), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Injection == nil {
			t.Fatal("faulty run produced no injection stats")
		}
		if r.Injection.TailSpikes == 0 && r.Injection.ChannelStalls == 0 && r.Injection.DMAFailures == 0 {
			t.Fatalf("no faults delivered: %+v", r.Injection)
		}
		return summaryJSON(t, r)
	}
	for _, cores := range []int{1, 4} {
		if a, b := run(cores), run(cores); a != b {
			t.Errorf("%d-core faulty run is not deterministic\n first: %s\nsecond: %s", cores, a, b)
		}
	}
}

// Per-core time conservation must hold exactly under any fault schedule:
// injected delays surface as longer waits, never as unaccounted time. (The
// always-on auditor would already fail the run; this checks the ledger sums
// too.)
func TestConservationUnderFaults(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Sync, policy.Async, policy.ITS} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := faultyConfig(4)
			cfg.SpinBudget = 6 * sim.Microsecond
			m, err := smp.New(cfg, factory(kind), "2_Data_Intensive", testSpecs(t, 0.02))
			if err != nil {
				t.Fatal(err)
			}
			run, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			var maxClock sim.Time
			for _, c := range run.Cores {
				accounted := c.CPUTime + c.SchedulerIdle + c.ContextSwitchTime
				if accounted != c.LocalClock {
					t.Errorf("core %d: accounted %v != local clock %v (cpu %v, idle %v, switch %v)",
						c.ID, accounted, c.LocalClock, c.CPUTime, c.SchedulerIdle, c.ContextSwitchTime)
				}
				if c.LocalClock > maxClock {
					maxClock = c.LocalClock
				}
			}
			if run.Makespan != maxClock {
				t.Errorf("makespan %v != max local clock %v", run.Makespan, maxClock)
			}
		})
	}
}

// Under heavy tail latency with a spin budget set, ITS must demote
// over-budget synchronous waits to async context switches: the degradation
// path toward Vanilla_Async instead of burning the core.
func TestITSDemotesUnderTailLatency(t *testing.T) {
	cfg := testConfig(1)
	cfg.Fault = fault.Config{Seed: 7, TailProb: 0.3, TailMult: 16}
	cfg.SpinBudget = 4 * sim.Microsecond
	m, err := smp.New(cfg, factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalDemotions() == 0 {
		t.Fatal("high-tail run with a spin budget produced no demotions")
	}
	// Without a budget the same schedule burns the core instead.
	cfg.SpinBudget = 0
	m, err = smp.New(cfg, factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	run, err = m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalDemotions() != 0 {
		t.Fatalf("demotions (%d) without a spin budget", run.TotalDemotions())
	}
}

// When the busy_storage_channels gauge saturates, ITS's prefetch throttles
// itself: the throttle counter fires and fewer prefetches are issued than
// with the throttle off.
func TestITSPrefetchThrottles(t *testing.T) {
	throttledITS := func() policy.Policy {
		return policy.NewITS(policy.ITSConfig{PrefetchThrottleFraction: 0.1})
	}
	run := func(f func() policy.Policy) ( /*throttled*/ uint64 /*issued*/, uint64) {
		m, err := smp.New(faultyConfig(1), f, "2_Data_Intensive", testSpecs(t, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var issued uint64
		for _, p := range r.Procs {
			issued += p.PrefetchIssued
		}
		return r.TotalPrefetchThrottled(), issued
	}
	thN, thIssued := run(throttledITS)
	if thN == 0 {
		t.Fatal("saturated device never throttled the prefetcher")
	}
	offN, offIssued := run(factory(policy.ITS))
	if offN != 0 {
		t.Fatalf("throttle counter (%d) with the throttle off", offN)
	}
	if thIssued >= offIssued {
		t.Errorf("throttled run issued %d prefetches, unthrottled %d — throttling did not reduce issue rate",
			thIssued, offIssued)
	}
}

// A fault config with every probability zero must not change anything: no
// injector is attached and the summary matches the fault-free run
// byte-for-byte.
func TestZeroFaultConfigIsInert(t *testing.T) {
	baseline := func() string {
		m, err := smp.New(testConfig(2), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Injection != nil {
			t.Fatalf("fault-free run has injection stats: %+v", r.Injection)
		}
		return summaryJSON(t, r)
	}
	zeroed := func() string {
		cfg := testConfig(2)
		cfg.Fault = fault.Config{Seed: 99, TailMult: 8, StallWindow: sim.Millisecond, RetryMax: 5}
		m, err := smp.New(cfg, factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.02))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return summaryJSON(t, r)
	}
	if a, b := baseline(), zeroed(); a != b {
		t.Errorf("zero-probability fault config changed the summary\n base: %s\nfault: %s", a, b)
	}
}
