package smp_test

import (
	"encoding/json"
	"strings"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/workload"
)

// testConfig is the default platform with test-sized slices and the given
// core count.
func testConfig(cores int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = cores
	cfg.MinSlice = 20 * sim.Microsecond
	cfg.MaxSlice = 200 * sim.Microsecond
	return cfg
}

// testSpecs builds fresh specs for the 2_Data_Intensive batch (generators
// are stateful, so every machine needs its own set).
func testSpecs(t *testing.T, scale float64) []machine.ProcessSpec {
	t.Helper()
	b, err := workload.BatchByName("2_Data_Intensive")
	if err != nil {
		t.Fatal(err)
	}
	gens := b.Generators(scale)
	specs := make([]machine.ProcessSpec, len(gens))
	for i, g := range gens {
		specs[i] = machine.ProcessSpec{
			Name:     g.Name(),
			Gen:      g,
			Priority: b.Priorities[i],
			BaseVA:   workload.BaseVA,
		}
	}
	return specs
}

func factory(kind policy.Kind) func() policy.Policy {
	return func() policy.Policy {
		if kind == policy.ITS {
			return policy.NewITS(policy.ITSConfig{})
		}
		return policy.New(kind)
	}
}

// summaryJSON serializes a run summary.
func summaryJSON(t *testing.T, run *metrics.Run) string {
	t.Helper()
	out, err := json.Marshal(run.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDeterminism runs the 4-core machine twice on identical inputs and
// demands byte-identical summaries, per-core counters included.
func TestDeterminism(t *testing.T) {
	const scale = 0.02
	run := func() string {
		m, err := smp.New(testConfig(4), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, scale))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return summaryJSON(t, r)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("4-core run is not deterministic\n first: %s\nsecond: %s", a, b)
	}
}

// TestPerCoreTimeConservation checks the per-core ledger on a multi-core
// run: every nanosecond of each core's local clock is CPU occupancy,
// scheduler idle, or context-switch time — and the run makespan is the
// latest local clock.
func TestPerCoreTimeConservation(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Sync, policy.Async, policy.ITS} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := smp.New(testConfig(4), factory(kind), "2_Data_Intensive", testSpecs(t, 0.02))
			if err != nil {
				t.Fatal(err)
			}
			run, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Cores) != 4 {
				t.Fatalf("want 4 core entries, got %d", len(run.Cores))
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

// TestWorkStealingOccurs: with more processes than cores, idle cores must
// pull Ready work over, and every steal must pair with a migration on the
// victim side.
func TestWorkStealingOccurs(t *testing.T) {
	m, err := smp.New(testConfig(4), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var steals, migrated uint64
	for _, c := range run.Cores {
		steals += c.Steals
		migrated += c.MigratedAway
	}
	if steals == 0 {
		t.Error("no steals on a 4-core run with 5 processes")
	}
	if steals != migrated {
		t.Errorf("steals (%d) != migrations (%d)", steals, migrated)
	}
}

// TestNewErrors covers the validation surface the -cores flag reaches.
func TestNewErrors(t *testing.T) {
	specs := testSpecs(t, 0.01)
	cases := []struct {
		name  string
		cfg   machine.Config
		pol   func() policy.Policy
		specs []machine.ProcessSpec
		want  string
	}{
		{"negative cores", testConfig(-1), factory(policy.Sync), specs, "core count"},
		{"non-power-of-two LLC ways", func() machine.Config {
			cfg := testConfig(2)
			cfg.LLCWays = 3
			return cfg
		}(), factory(policy.Sync), specs, "power of two"},
		{"carve-out too small", testConfig(16), factory(policy.Sync), specs, "pre-execute"},
		{"nil factory", testConfig(2), nil, specs, "factory"},
		{"no processes", testConfig(1), factory(policy.Sync), nil, "no processes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := smp.New(tc.cfg, tc.pol, "test", tc.specs)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestZeroCoresDefaultsToOne: a zero core count builds a one-core machine
// (the Options zero value).
func TestZeroCoresDefaultsToOne(t *testing.T) {
	cfg := testConfig(0)
	m, err := smp.New(cfg, factory(policy.Sync), "test", testSpecs(t, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if m.CoreCount() != 1 {
		t.Errorf("CoreCount = %d, want 1", m.CoreCount())
	}
}
