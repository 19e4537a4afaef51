package metrics

import (
	"fmt"

	"itsim/internal/sim"
)

// CoreAttribution is one core's folded interval totals as recovered from a
// trace replay (internal/replay): the sum of its dispatch spans, context
// switch charges and scheduler-idle spans. It intentionally mirrors the
// conservation-bearing fields of Core so the two can be reconciled with
// zero tolerance.
type CoreAttribution struct {
	Core              int      `json:"core"`
	CPUTime           sim.Time `json:"cpu_time_ns"`
	ContextSwitchTime sim.Time `json:"context_switch_time_ns"`
	SchedulerIdle     sim.Time `json:"scheduler_idle_ns"`
}

// Total is the attributed virtual time: on a clean trace it equals the
// core's local clock.
func (a CoreAttribution) Total() sim.Time {
	return a.CPUTime + a.ContextSwitchTime + a.SchedulerIdle
}

// CheckAttribution reconciles replayed per-core attribution totals against
// this summary's conservation ledger — virtual-time arithmetic, zero
// tolerance. On multi-core summaries every category must match its per-core
// counter exactly and the attributed total must equal the core's local
// clock (CPUTime + SchedulerIdle + ContextSwitchTime == LocalClock). On
// single-core summaries (no per-core section) the CPU category is
// checked against the per-process CPU times, idle against the run-level
// counter, and the grand total against the makespan; the run-level switch
// counter excludes the pollution tail the events carry, so it is covered
// only through the total.
func (s *Summary) CheckAttribution(atts []CoreAttribution) error {
	if len(s.Cores) > 0 {
		covered := make(map[int]bool, len(atts))
		for _, att := range atts {
			var c *Core
			for _, sc := range s.Cores {
				if sc.ID == att.Core {
					c = sc
					break
				}
			}
			if c == nil {
				return fmt.Errorf("metrics: attribution for core %d but summary has no such core", att.Core)
			}
			covered[att.Core] = true
			if att.CPUTime != c.CPUTime || att.ContextSwitchTime != c.ContextSwitchTime || att.SchedulerIdle != c.SchedulerIdle {
				return fmt.Errorf("metrics: core %d attribution (cpu %v, switch %v, idle %v) != ledger (cpu %v, switch %v, idle %v)",
					att.Core, att.CPUTime, att.ContextSwitchTime, att.SchedulerIdle,
					c.CPUTime, c.ContextSwitchTime, c.SchedulerIdle)
			}
			if att.Total() != c.LocalClock {
				return fmt.Errorf("metrics: core %d attributed total %v != local clock %v", att.Core, att.Total(), c.LocalClock)
			}
		}
		// A core that parked for the whole run emits no events and so has no
		// attribution entry; that is consistent only with an all-zero ledger.
		for _, sc := range s.Cores {
			if covered[sc.ID] {
				continue
			}
			if sc.CPUTime != 0 || sc.ContextSwitchTime != 0 || sc.SchedulerIdle != 0 {
				return fmt.Errorf("metrics: core %d has ledger time (cpu %v, switch %v, idle %v) but no attributed events",
					sc.ID, sc.CPUTime, sc.ContextSwitchTime, sc.SchedulerIdle)
			}
		}
		return nil
	}

	if len(atts) != 1 || atts[0].Core != 0 {
		return fmt.Errorf("metrics: single-core summary needs exactly one core-0 attribution, got %d", len(atts))
	}
	att := atts[0]
	var procCPU sim.Time
	for _, p := range s.Procs {
		procCPU += p.CPUTime
	}
	if att.CPUTime != procCPU {
		return fmt.Errorf("metrics: attributed CPU occupancy %v != per-process CPU time %v", att.CPUTime, procCPU)
	}
	if att.SchedulerIdle != sim.Time(s.SchedulerIdleNs) {
		return fmt.Errorf("metrics: attributed scheduler idle %v != summary %v", att.SchedulerIdle, s.SchedulerIdleNs)
	}
	if att.Total() != sim.Time(s.MakespanNs) {
		return fmt.Errorf("metrics: attributed total %v != makespan %v", att.Total(), s.MakespanNs)
	}
	return nil
}
