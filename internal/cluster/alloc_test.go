package cluster

import (
	"runtime"
	"testing"

	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// maxHeapPerEpoch bounds the host heap one fleet epoch may allocate. A
// platform rebuilt from scratch every epoch costs over 1 MiB in cache
// arrays alone (the 8 MiB LLC's tags and recency words, plus the
// pre-execute carve-out under ITS); recycled, an epoch allocates only its
// fresh simulated state — kernel, DRAM, page tables, processes, traces.
const maxHeapPerEpoch = 256 << 10

// TestEpochHeapBudget is the fleet's allocation gate: a one-machine fleet
// running one request per epoch must stay under maxHeapPerEpoch bytes of
// heap per epoch, for a policy with and without pre-execute carve-outs.
func TestEpochHeapBudget(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Sync, policy.ITS} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{
				Machines: 1,
				Slots:    1,
				Policy:   kind,
				Scale:    0.5,
				Tenants: []TenantSpec{
					{Name: "web", Bench: workload.PageRank, Requests: 20, Priority: 3, Rate: 1e5, SLO: 20 * sim.Millisecond},
					{Name: "batch", Bench: workload.Caffe, Requests: 20, Priority: 1, Rate: 1e5},
				},
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			epochs := len(res.Epochs)
			if epochs < 30 {
				t.Fatalf("only %d epochs; the gate needs at least 30", epochs)
			}
			perEpoch := (after.TotalAlloc - before.TotalAlloc) / uint64(epochs)
			t.Logf("%d bytes over %d epochs = %d KiB/epoch", after.TotalAlloc-before.TotalAlloc, epochs, perEpoch>>10)
			if perEpoch >= maxHeapPerEpoch {
				t.Errorf("fleet allocates %d KiB per epoch; want < %d KiB", perEpoch>>10, maxHeapPerEpoch>>10)
			}
		})
	}
}
