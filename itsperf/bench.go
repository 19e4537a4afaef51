package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"itsim/internal/cluster"
	"itsim/internal/core"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/prng"
	"itsim/internal/smp"
	"itsim/internal/trace"
	"itsim/internal/workload"
)

// bench is one workload: set-up builds its inputs, pass runs one complete
// simulation over them, and check is the set-up equivalence gate.
type bench interface {
	setup(lt *layerTimes) error
	pass(lt *layerTimes) (passResult, error)
	check(first passResult) error
}

// passResult is what one pass produced: the digest of its serialized
// summary, the work it simulated, and the exact simulated counts.
type passResult struct {
	digest   [sha256.Size]byte
	records  int           // trace records simulated
	requests int           // processes (batch members or fleet requests) completed
	epochs   int           // fleet epochs (0 on a batch pass)
	makespan time.Duration // simulated makespan summed over the smp runs
	counts   simCounts
}

// simCounts are the exact simulated statistics of one pass, summed over
// every smp run it made. A speed-only change leaves every one unchanged.
type simCounts struct {
	idleNs, stolenNs         int64
	majorFaults              uint64
	llcAccesses, llcMisses   uint64
	prefetchIssued, pfUseful uint64
	preexecInstrs, preValid  uint64
	contextSwitches, steals  uint64
	sloAttainWeb             float64
}

func (c *simCounts) add(run *metrics.Run) {
	c.idleNs += int64(run.TotalIdle())
	c.stolenNs += int64(run.TotalStolen())
	c.majorFaults += run.TotalMajorFaults()
	c.llcMisses += run.TotalLLCMisses()
	c.contextSwitches += run.TotalContextSwitches()
	for _, p := range run.Procs {
		c.llcAccesses += p.LLCAccesses
		c.prefetchIssued += p.PrefetchIssued
		c.pfUseful += p.PrefetchUseful
		c.preexecInstrs += p.PreexecInstrs
		c.preValid += p.PreexecValid
	}
	for _, core := range run.Cores {
		c.steals += core.Steals
	}
}

// layerTimes accumulates host time spent in each layer's public calls. A
// nil *layerTimes (the untraced run) records nothing and reads no clock.
type layerTimes struct {
	synth        time.Duration
	synthRecords int
	smpNew       time.Duration
	smpNewCalls  int
	smpRun       time.Duration
	smpRunRecs   int
	summary      time.Duration
	summaryCalls int
	clusterRun   time.Duration
	clusterEps   int
}

// clock reads the wall clock only when the layer timers are on.
func (lt *layerTimes) clock() time.Time {
	if lt == nil {
		return time.Time{}
	}
	return time.Now()
}

// seedMix turns the -seed argument into the value mixed into every
// workload seed. Seed 0 maps to 0, so the default reproduces the pinned
// per-benchmark seeds (XOR with 0 is the identity).
func seedMix(seed uint64) uint64 {
	if seed == 0 {
		return 0
	}
	return prng.Mix(seed)
}

func newPolicyFactory(kind policy.Kind) func() policy.Policy {
	return func() policy.Policy {
		if kind == policy.ITS {
			return policy.NewITS(policy.ITSConfig{})
		}
		return policy.New(kind)
	}
}

func digestOf(v any) ([sha256.Size]byte, error) {
	js, err := json.Marshal(v)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("encode summary: %w", err)
	}
	return sha256.Sum256(js), nil
}

// batchBench runs one of the paper's six-process batches on one smp
// machine over traces synthesised at set-up and kept in memory, so a pass
// times the engine alone.
type batchBench struct {
	batch workload.Batch
	kind  policy.Kind
	cores int
	scale float64
	seed  uint64 // the raw -seed argument

	cfg    machine.Config
	srcs   []*workload.Synthetic
	traces [][]trace.Record
}

func newBatchBench(batchName string, kind policy.Kind, cores int, scale float64, seed uint64) (*batchBench, error) {
	b, err := workload.BatchByName(batchName)
	if err != nil {
		return nil, err
	}
	cfg := machine.DefaultConfig()
	cfg.MinSlice, cfg.MaxSlice = core.SliceRange(scale)
	cfg.DRAMRatio = core.DRAMRatioFor(b.DataIntensive)
	cfg.Cores = cores
	return &batchBench{batch: b, kind: kind, cores: cores, scale: scale, seed: seed, cfg: cfg}, nil
}

// generators returns fresh streaming generators for the batch members,
// each with the seed argument mixed into its pinned profile seed.
func (b *batchBench) generators() ([]*workload.Synthetic, error) {
	out := make([]*workload.Synthetic, len(b.batch.Members))
	for i, name := range b.batch.Members {
		p, err := workload.ProfileFor(name, b.scale)
		if err != nil {
			return nil, err
		}
		p.Seed ^= seedMix(b.seed)
		out[i] = workload.New(p)
	}
	return out, nil
}

// setup synthesises the six traces into memory.
func (b *batchBench) setup(lt *layerTimes) error {
	srcs, err := b.generators()
	if err != nil {
		return err
	}
	b.srcs = srcs
	b.traces = make([][]trace.Record, len(srcs))
	t0 := lt.clock()
	for i, g := range srcs {
		b.traces[i] = trace.Records(g)
		g.Reset() // WarmPages reads the generator's reset state
	}
	if lt != nil {
		lt.synth += time.Since(t0)
		lt.synthRecords += b.records()
	}
	return nil
}

func (b *batchBench) records() int {
	n := 0
	for _, t := range b.traces {
		n += len(t)
	}
	return n
}

// prebuilt is a pre-built in-memory trace that keeps its source's
// footprint and warm set: without both, MapRegion and the DRAM warm start
// would differ from a run over the streaming generator.
type prebuilt struct {
	*trace.SliceGenerator
	src *workload.Synthetic
}

// WarmPages forwards to the source generator.
func (p prebuilt) WarmPages(maxPages int) []uint64 { return p.src.WarmPages(maxPages) }

func (b *batchBench) specs(gens []trace.Generator) []machine.ProcessSpec {
	specs := make([]machine.ProcessSpec, len(gens))
	for i, g := range gens {
		specs[i] = machine.ProcessSpec{
			Name:     g.Name(),
			Gen:      g,
			Priority: b.batch.Priorities[i],
			BaseVA:   workload.BaseVA,
		}
	}
	return specs
}

func (b *batchBench) prebuiltGens() []trace.Generator {
	gens := make([]trace.Generator, len(b.traces))
	for i, recs := range b.traces {
		g := trace.NewSliceGenerator(b.srcs[i].Name(), recs)
		g.SetFootprint(b.srcs[i].FootprintBytes())
		gens[i] = prebuilt{SliceGenerator: g, src: b.srcs[i]}
	}
	return gens
}

func (b *batchBench) pass(lt *layerTimes) (passResult, error) {
	res, _, err := b.run(b.prebuiltGens(), lt)
	return res, err
}

// run is one pass: smp.New, Run, Summary and its JSON digest.
func (b *batchBench) run(gens []trace.Generator, lt *layerTimes) (passResult, metrics.Summary, error) {
	t0 := lt.clock()
	m, err := smp.New(b.cfg, newPolicyFactory(b.kind), b.batch.Name, b.specs(gens))
	if err != nil {
		return passResult{}, metrics.Summary{}, err
	}
	t1 := lt.clock()
	run, err := m.Run()
	if err != nil {
		return passResult{}, metrics.Summary{}, err
	}
	t2 := lt.clock()
	sum := run.Summary()
	dg, err := digestOf(sum)
	if err != nil {
		return passResult{}, sum, err
	}
	recs := b.records()
	if lt != nil {
		t3 := time.Now()
		lt.smpNew += t1.Sub(t0)
		lt.smpNewCalls++
		lt.smpRun += t2.Sub(t1)
		lt.smpRunRecs += recs
		lt.summary += t3.Sub(t2)
		lt.summaryCalls++
	}
	res := passResult{digest: dg, records: recs, requests: len(run.Procs), makespan: time.Duration(run.Makespan)}
	res.counts.add(run)
	for _, p := range run.Procs {
		if !p.Finished {
			return res, sum, fmt.Errorf("process %s did not finish", p.Name)
		}
	}
	return res, sum, nil
}

// check is the pre-built trace equivalence gate: a pass over fresh
// streaming generators must give the pre-built pass's digest and, at the
// default seed, core.RunBatch must give the same summary. RunBatch takes
// the single-core machine path at 1 core, which omits the per-core block
// the smp path emits, so that block is left out of the second comparison.
func (b *batchBench) check(first passResult) error {
	srcs, err := b.generators()
	if err != nil {
		return err
	}
	gens := make([]trace.Generator, len(srcs))
	for i, g := range srcs {
		gens[i] = g
	}
	streamed, sum, err := b.run(gens, nil)
	if err != nil {
		return fmt.Errorf("streamed pass: %w", err)
	}
	if streamed.digest != first.digest {
		return fmt.Errorf("pre-built pass digest %x differs from streamed pass %x", first.digest[:8], streamed.digest[:8])
	}
	if b.seed != 0 {
		return nil
	}
	ref, err := core.RunBatch(b.batch, b.kind, core.Options{Scale: b.scale, Cores: b.cores})
	if err != nil {
		return fmt.Errorf("core.RunBatch: %w", err)
	}
	refSum := ref.Summary()
	refSum.Cores, sum.Cores = nil, nil
	want, err := digestOf(refSum)
	if err != nil {
		return err
	}
	got, err := digestOf(sum)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("pass digest %x differs from core.RunBatch %x", got[:8], want[:8])
	}
	return nil
}

// fleetTenantSpec is the `itsbench -exp fleet` three-tenant mix at 300
// requests per tenant. At 100 the seed-to-seed spread of the simulated
// work (and so of the host time) was 12 %; at 300 it is about 5 %.
const fleetTenantSpec = "name=web,bench=pagerank,rate=3e5,req=300,prio=3,slo=20ms;" +
	"name=train,bench=caffe,rate=2e5,req=300,prio=2,pattern=diurnal,slo=60ms;" +
	"name=batch,bench=randomwalk,rate=1e5,req=300,prio=1,pattern=bursty"

// fleetBench runs cluster.Run over the parsed tenant mix. Request traces
// are synthesised inside the pass, as the fleet does in production.
type fleetBench struct {
	machines int
	kind     policy.Kind
	routing  string
	scale    float64
	seed     uint64

	cfg       cluster.Config
	submitted int
	recsOf    map[string]int // tenant name → trace records per request
}

func newFleetBench(machines int, kind policy.Kind, routing string, scale float64, seed uint64) *fleetBench {
	return &fleetBench{machines: machines, kind: kind, routing: routing, scale: scale, seed: seed}
}

// setup parses and validates the tenant mix.
func (f *fleetBench) setup(lt *layerTimes) error {
	tenants, err := cluster.ParseTenantSpec(fleetTenantSpec)
	if err != nil {
		return err
	}
	f.cfg = cluster.Config{
		Machines: f.machines,
		Policy:   f.kind,
		Routing:  f.routing,
		Tenants:  tenants,
		Scale:    f.scale,
		Seed:     seedMix(f.seed),
	}
	if err := f.cfg.Validate(); err != nil {
		return err
	}
	f.submitted = 0
	f.recsOf = make(map[string]int, len(tenants))
	for _, t := range tenants {
		f.submitted += t.Requests
		p, err := workload.ProfileFor(t.Bench, tenantScale(t, f.scale))
		if err != nil {
			return err
		}
		f.recsOf[t.Name] = p.Records
		if lt != nil {
			// Time synthesis of one request's trace per tenant.
			p.Seed ^= seedMix(f.seed)
			g := workload.New(p)
			t0 := time.Now()
			n := len(trace.Records(g))
			lt.synth += time.Since(t0)
			lt.synthRecords += n
		}
	}
	return nil
}

// tenantScale is the workload scale a tenant's requests run at: the
// tenant's own scale (cluster.DefaultTenantScale when unset) times the
// fleet scale.
func tenantScale(t cluster.TenantSpec, fleetScale float64) float64 {
	s := t.Scale
	if s <= 0 {
		s = cluster.DefaultTenantScale
	}
	if fleetScale > 0 {
		s *= fleetScale
	}
	return s
}

func (f *fleetBench) pass(lt *layerTimes) (passResult, error) {
	t0 := lt.clock()
	res, err := cluster.Run(f.cfg)
	if err != nil {
		return passResult{}, err
	}
	t1 := lt.clock()
	dg, err := digestOf(res.Summary)
	if err != nil {
		return passResult{}, err
	}
	if lt != nil {
		lt.clusterRun += t1.Sub(t0)
		lt.clusterEps += len(res.Epochs)
		lt.summary += time.Since(t1)
		lt.summaryCalls++
	}
	out := passResult{digest: dg, epochs: len(res.Epochs)}
	for _, run := range res.Epochs {
		out.makespan += time.Duration(run.Makespan)
		out.counts.add(run)
		for _, p := range run.Procs {
			if p.Finished {
				out.requests++
			}
			out.records += f.recsOf[p.Tenant]
		}
	}
	if err := f.conserve(res.Summary); err != nil {
		return out, err
	}
	for _, t := range res.Summary.Tenants {
		if t.Name == "web" {
			out.counts.sloAttainWeb = t.SLOAttainment
		}
	}
	return out, nil
}

// conserve checks that every submitted request resolved exactly once.
func (f *fleetBench) conserve(s metrics.FleetSummary) error {
	var completed, shed, failed, requests uint64
	for _, t := range s.Tenants {
		requests += t.Requests
		completed += t.Completed
		shed += t.Shed
		failed += t.Failed
	}
	if int(s.Requests) != f.submitted || int(requests) != f.submitted || completed+shed+failed != requests {
		return fmt.Errorf("fleet accounting: submitted %d, summary %d, completed %d + shed %d + failed %d",
			f.submitted, s.Requests, completed, shed, failed)
	}
	return nil
}

// check is the fleet's set-up gate. The fleet synthesises its traces
// inside cluster.Run, so there is no pre-built trace to compare; instead
// every request must have run in exactly one epoch to completion, with
// nothing shed or failed in this chaos-free mix.
func (f *fleetBench) check(first passResult) error {
	if first.requests != f.submitted {
		return fmt.Errorf("fleet gate: %d of %d requests completed in epochs", first.requests, f.submitted)
	}
	return nil
}
