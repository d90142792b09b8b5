package main

import (
	"sync"
	"time"

	hm "repro"
)

// span is one call into a layer, recorded by the benchmark around the
// public entry point it called. Spans of one op (a sweep cell, a daemon
// request) share Op; Parent links a span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // -1: not part of an op
	Name   string `json:"name"`   // the call: Profile, Analyze, Advise, Execute, ...
	Kind   string `json:"kind,omitempty"`
	// Pair names the (workload, seed) an engine span simulated, so a
	// monitored or online run can be priced against its DDR baseline.
	Pair  string `json:"pair,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Refs is the simulated references of an engine call; Records the
	// trace records an Analyze call reduced.
	Refs    int64 `json:"refs,omitempty"`
	Records int64 `json:"records,omitempty"`
	// Degraded marks an Advise call whose solver fell back to the
	// density waterfall (the report carries a Degraded marker).
	Degraded bool `json:"degraded,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how the untraced replay shares the traced replay's code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens span s and returns its id (0 on a nil tracer).
func (t *tracer) begin(s span) int {
	if t == nil {
		return 0
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id, recording the work it did.
func (t *tracer) end(id int, refs, records int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Refs, s.Records = now, refs, records
}

// endAdvise closes Advise span id, marking it when rep is degraded.
func (t *tracer) endAdvise(id int, rep *hm.PlacementReport) {
	t.end(id, 0, 0)
	if t == nil || rep == nil || rep.Degraded == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Degraded = true
}

// coverage returns, per span named parentName that belongs to an op,
// the share of its duration its direct children cover, keyed by op.
func coverage(spans []span, parentName string) map[int]float64 {
	child := map[int]time.Duration{}
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			child[p] += spans[i].dur()
		}
	}
	out := map[int]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Name == parentName && s.Op >= 0 && s.dur() > 0 {
			out[s.Op] = float64(child[s.ID]) / float64(s.dur())
		}
	}
	return out
}

// spanLedger fills the engine, paramedir and advisor rows of the
// ledger from the spans of a traced replay.
func spanLedger(l map[string]float64, spans []span) {
	busy := map[string]time.Duration{}
	refs := map[string]int64{}
	var analyzeBusy time.Duration
	var records int64
	var adviseBusy time.Duration
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "Profile", "Execute", "RunBaseline", "RunOnline":
			l["engine."+s.Kind+".calls"]++
			busy[s.Kind] += s.dur()
			refs[s.Kind] += s.Refs
			l["engine.refs_computed"] += float64(s.Refs)
		case "Analyze":
			l["paramedir.analyze.calls"]++
			analyzeBusy += s.dur()
			records += s.Records
		case "Advise":
			l["advisor.advise.calls"]++
			adviseBusy += s.dur()
			if s.Degraded {
				l["advisor.degraded"]++
			}
		}
	}
	for _, k := range engineKinds {
		l["engine."+k+".busy_s"] = busy[k].Seconds()
		if busy[k] > 0 {
			l["engine."+k+".mrefs_per_s"] = float64(refs[k]) / busy[k].Seconds() / 1e6
		}
	}
	l["paramedir.analyze.busy_ms"] = float64(analyzeBusy.Nanoseconds()) / 1e6
	if analyzeBusy > 0 {
		l["paramedir.records_per_s"] = float64(records) / analyzeBusy.Seconds()
	}
	l["advisor.advise.busy_ms"] = float64(adviseBusy.Nanoseconds()) / 1e6
}

// overheadPct is the host-time overhead of the engine spans of kind
// over the DDR baseline spans of the same Pair. Spans without a DDR
// partner are skipped.
func overheadPct(spans []span, kind string) float64 {
	ddr := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.Kind == kindBaselineFlat && s.Pair != "" {
			ddr[s.Pair] = s.dur()
		}
	}
	var num, den time.Duration
	for i := range spans {
		s := &spans[i]
		if s.Kind != kind || s.Pair == "" {
			continue
		}
		if d, ok := ddr[s.Pair]; ok && d > 0 {
			num += s.dur()
			den += d
		}
	}
	if den == 0 {
		return 0
	}
	return 100 * (float64(num)/float64(den) - 1)
}

// runTotals accumulates the model statistics of computed runs: what
// the cache, mem, alloc, interpose and pebs layers counted.
type runTotals struct {
	refs, llcAcc, llcMiss, mcHits, mcMisses           int64
	lastHits, placements, mallocs, reuses, allocFails int64
	placeFails, samples                               int64
	epochs, resolves, warmHits, warmMisses            int64
	migrations, migratedBytes                         int64
}

func (t *runTotals) add(r *hm.RunResult) {
	if r == nil {
		return
	}
	m := r.Metrics
	t.refs += hm.SimulatedRefs(r)
	t.llcAcc += r.LLCAccesses
	t.llcMiss += r.LLCMisses
	t.mcHits += r.MCDRAMCacheHits
	t.mcMisses += r.MCDRAMCacheMisses
	t.lastHits += m["pagetable_last_hits"]
	t.placements += m["pagetable_placements"]
	t.mallocs += m["arena_mallocs"]
	t.reuses += m["arena_reuses"]
	t.allocFails += m["arena_failures"]
	t.placeFails += r.PlacementFailures
	t.samples += r.Samples
	t.epochs += r.Epochs
	t.resolves += m["solver_resolves"]
	t.warmHits += m["solver_warm_hits"]
	t.warmMisses += m["solver_warm_misses"]
	t.migrations += r.Migrations
	t.migratedBytes += r.MigratedBytes
}

// fill writes the model-statistics rows of the ledger.
func (t *runTotals) fill(l map[string]float64) {
	l["cache.llc_accesses_per_ref"] = ratio(t.llcAcc, t.refs)
	l["cache.llc_miss_frac"] = ratio(t.llcMiss, t.llcAcc)
	l["cache.mcdram_hit_frac"] = ratio(t.mcHits, t.mcHits+t.mcMisses)
	l["mem.pagetable_last_hits_per_ref"] = ratio(t.lastHits, t.refs)
	l["mem.pagetable_placements"] = float64(t.placements)
	l["alloc.reuse_frac"] = ratio(t.reuses, t.mallocs)
	l["alloc.failures"] = float64(t.allocFails)
	l["interpose.placement_failures"] = float64(t.placeFails)
	l["pebs.samples"] = float64(t.samples)
	l["online.epochs"] = float64(t.epochs)
	l["online.solver_resolves"] = float64(t.resolves)
	l["online.warm_hit_frac"] = ratio(t.warmHits, t.warmHits+t.warmMisses)
	l["online.migrations"] = float64(t.migrations)
	l["online.migrated_mb"] = float64(t.migratedBytes) / float64(hm.MB)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
