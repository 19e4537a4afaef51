package smp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
)

// goldenFile is the single-core golden anchor: summaries keyed
// "variant/policy", plus SHA-256 digests of the faulty runs' JSONL traces
// (50 µs gauges on). It was written by the single-core machine's own run
// loop before that loop was folded into this package, so a one-core run
// here must reproduce it byte for byte — no per-core section included.
const goldenFile = "testdata/single_core_golden.json"

type golden struct {
	Summaries   map[string]json.RawMessage `json:"summaries"`
	TraceSHA256 map[string]string          `json:"trace_sha256"`
}

func loadGolden(t *testing.T) golden {
	t.Helper()
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	return g
}

// checkGolden runs the 2_Data_Intensive batch at the given scale on a
// one-core smp machine under every policy kind and compares each summary —
// and, when traced, the digest of its JSONL trace — with the golden entry
// "variant/policy".
func checkGolden(t *testing.T, g golden, variant string, cfg machine.Config, scale float64, traced bool) {
	for _, kind := range policy.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			key := variant + "/" + kind.String()
			want, ok := g.Summaries[key]
			if !ok {
				t.Fatalf("%s has no summary %q", goldenFile, key)
			}
			m, err := smp.New(cfg, factory(kind), "2_Data_Intensive", testSpecs(t, scale))
			if err != nil {
				t.Fatalf("smp.New: %v", err)
			}
			var buf bytes.Buffer
			var sink *obs.JSONL
			if traced {
				sink = obs.NewJSONL(&buf)
				m.Instrument(obs.NewTracer(sink, obs.Filter{}), 50*sim.Microsecond)
			}
			run, err := m.Run()
			if err != nil {
				t.Fatalf("smp run: %v", err)
			}
			if got := summaryJSON(t, run); got != string(want) {
				t.Errorf("1-core run diverged from the golden summary %q\n got: %s\nwant: %s", key, got, want)
			}
			if !traced {
				return
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.TraceSHA256[key] {
				t.Errorf("1-core trace digest for %q = %s, golden %s", key, got, g.TraceSHA256[key])
			}
		})
	}
}

// TestSingleCoreMatchesMachine is the degeneracy guarantee on the default
// test platform: with Cores=1 the coordinator reproduces the single-core
// machine's metrics exactly, for every policy kind.
func TestSingleCoreMatchesMachine(t *testing.T) {
	checkGolden(t, loadGolden(t), "single_core", testConfig(1), 0.02, false)
}

// TestEquivalenceProperty extends the guarantee over a sweep of config
// variants (mechanistic TLB, huge-I/O swap clusters, polling recovery,
// strict priorities, different trace scales).
func TestEquivalenceProperty(t *testing.T) {
	variants := []struct {
		name  string
		scale float64
		mut   func(*machine.Config)
	}{
		{"base", 0.03, func(cfg *machine.Config) {}},
		{"tlb", 0.02, func(cfg *machine.Config) { cfg.TLBEntries = 64 }},
		{"swap_cluster", 0.02, func(cfg *machine.Config) { cfg.SwapClusterPages = 4 }},
		{"poll_recovery", 0.02, func(cfg *machine.Config) { cfg.RecoveryPoll = 2 * sim.Microsecond }},
		{"strict_priority", 0.02, func(cfg *machine.Config) { cfg.StrictPriority = true }},
		{"combined", 0.01, func(cfg *machine.Config) {
			cfg.TLBEntries = 64
			cfg.SwapClusterPages = 4
			cfg.RecoveryPoll = 2 * sim.Microsecond
		}},
	}
	g := loadGolden(t)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := testConfig(1)
			v.mut(&cfg)
			checkGolden(t, g, v.name, cfg, v.scale, false)
		})
	}
}

// TestFaultEquivalence holds the guarantee under a misbehaving device: the
// same fault schedule yields the golden summary and the golden event
// trace, injection counters and gauge samples included.
func TestFaultEquivalence(t *testing.T) {
	checkGolden(t, loadGolden(t), "faulty", faultyConfig(1), 0.02, true)
}
