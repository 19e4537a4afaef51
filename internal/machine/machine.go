// Package machine assembles the full simulated platform of the paper's
// evaluation (§4.1): a single simulated core with an L1 and a 16-way 8 MB
// LLC (halved when the policy needs a pre-execute cache), the mini kernel's
// page tables and swap path, the SCHED_RR scheduler with NICE time slices,
// the ULL device behind a PCIe 5.x ×4 link, and one of the five I/O-mode
// policies deciding what happens on every major page fault.
//
// A Machine executes a batch of trace-driven processes to completion on a
// deterministic virtual clock and produces a metrics.Run with everything
// Figures 4 and 5 need.
//
// The per-record executor lives in internal/exec and is shared with the
// multi-core model (internal/smp): a Machine is one exec.Core over one
// exec.Shared, driven by the plain run loop below. Config and ProcessSpec
// are aliases of the exec types, so existing callers are unaffected.
package machine

import (
	"fmt"

	"itsim/internal/cache"
	"itsim/internal/exec"
	"itsim/internal/kernel"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sched"
	"itsim/internal/sim"
)

// Timing defaults of the simulated core (re-exported from internal/exec for
// the package's historical API).
const (
	// DefaultL1Hit is the L1 hit latency.
	DefaultL1Hit = exec.DefaultL1Hit
	// DefaultLLCHit is the LLC hit latency.
	DefaultLLCHit = exec.DefaultLLCHit
	// DefaultInstPerNs is instructions retired per nanosecond of pure
	// compute (2 ⇒ 0.5 ns per instruction, a 2 GHz core at IPC 1).
	DefaultInstPerNs = exec.DefaultInstPerNs
	// DefaultLookahead is how many upcoming records the pre-execute
	// engine can see (the effective instruction window during runahead).
	DefaultLookahead = exec.DefaultLookahead
	// InterruptCost is the DMA completion interrupt's handling cost charged
	// when interrupt-driven state recovery ends a pre-execution episode
	// (§3.4.3).
	InterruptCost = exec.InterruptCost
)

// Config sizes the simulated platform. The zero value is not usable; start
// from DefaultConfig.
type Config = exec.Config

// ProcessSpec declares one process of a run.
type ProcessSpec = exec.ProcessSpec

// DefaultConfig returns the paper's §4.1 platform.
func DefaultConfig() Config { return exec.DefaultConfig() }

// Machine is one simulated platform executing one batch under one policy:
// the single core of a shared exec platform.
type Machine struct {
	s    *exec.Shared
	core *exec.Core
}

// New builds a machine for the given specs and policy. batchName labels the
// metrics.
func New(cfg Config, pol policy.Policy, batchName string, specs []ProcessSpec) *Machine {
	if len(specs) == 0 {
		panic("machine: no processes")
	}
	s, err := exec.NewShared(nil, cfg, []policy.Policy{pol}, batchName, specs, false)
	if err != nil {
		// Unreachable on the paper's geometries: the pre-execute
		// way-partition clamping keeps 1 ≤ pxWays < LLCWays at one core.
		panic(err)
	}
	return &Machine{s: s, core: s.Cores[0]}
}

// Instrument attaches an event tracer and, when gaugeEvery > 0, a periodic
// virtual-time gauge sampler to the machine. Call before Run. A nil tracer
// leaves tracing off (the accounting auditor still runs — it is part of the
// machine, not of tracing).
func (m *Machine) Instrument(trc *obs.Tracer, gaugeEvery sim.Time) {
	m.s.Instrument(trc, gaugeEvery)
}

// Auditor exposes the machine's accounting auditor (tests, tools).
func (m *Machine) Auditor() *obs.Auditor { return m.core.Aud }

// Kernel exposes the kernel for inspection (tests, tools).
func (m *Machine) Kernel() *kernel.Kernel { return m.s.Krn }

// LLC exposes the last-level cache for inspection.
func (m *Machine) LLC() *cache.Cache { return m.s.LLC }

// Scheduler exposes the scheduler for inspection.
func (m *Machine) Scheduler() *sched.RR { return m.core.Sch }

// Now returns the current virtual time.
func (m *Machine) Now() sim.Time { return m.core.Eng.Now() }

// Run executes every process to completion and returns the metrics. The
// always-on accounting auditor checks time conservation and monotonic
// virtual time as the run executes; a violation fails the run loudly.
func (m *Machine) Run() (*metrics.Run, error) {
	s, c := m.s, m.core
	c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvRunBegin, PID: -1,
		Cause: s.Run.Policy + "/" + s.Run.Batch})
	s.ScheduleGauges()
	for c.Sch.Alive() > 0 {
		if s.Cfg.MaxSimTime > 0 && c.Eng.Now() > s.Cfg.MaxSimTime {
			return s.Run, fmt.Errorf("machine: exceeded max simulated time %v", s.Cfg.MaxSimTime)
		}
		pid := c.Sch.PickNext()
		if pid == -1 {
			// Everyone is blocked on asynchronous I/O: the CPU sits
			// idle waiting for storage. The idle-begin event must go out
			// before StepOne — events fired inside carry later times.
			t0 := c.Eng.Now()
			if s.Want[obs.EvSchedIdleBegin] {
				c.Emit(obs.Event{Time: t0, Type: obs.EvSchedIdleBegin, PID: -1})
			}
			if !c.Eng.StepOne() {
				return s.Run, fmt.Errorf("machine: deadlock — no runnable process and no pending event at %v", t0)
			}
			s.Run.SchedulerIdle += c.Eng.Now() - t0
			if s.Want[obs.EvSchedIdleEnd] {
				c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvSchedIdleEnd, PID: -1})
			}
			continue
		}
		c.Dispatch(pid)
		c.RunUntil(exec.Never)
	}
	s.Run.Makespan = c.Eng.Now()
	c.Emit(obs.Event{Time: s.Run.Makespan, Type: obs.EvRunEnd, PID: -1})
	c.Eng.RunUntilIdle() // drain trailing prefetch/write-back completions
	s.CollectInjection()
	if err := c.Aud.Err(); err != nil {
		return s.Run, fmt.Errorf("machine: accounting audit failed: %w", err)
	}
	if err := c.CheckFolded(); err != nil {
		return s.Run, fmt.Errorf("machine: attribution cross-check failed: %w", err)
	}
	return s.Run, nil
}
