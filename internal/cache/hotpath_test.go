package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/xrand"
)

// hotPathFixture builds a flat-mode hierarchy over a page table shaped
// like a real run's: coarse segment bindings for the heaps plus a
// page-granular placed range inside the fast heap. It returns walk,
// which drives one mixed batch through the engine's access path
// (AccessRun/AccessRandomRun) so the radix lookup, the coarse fast
// path and the default fallthrough are all exercised.
func hotPathFixture(t testing.TB) (h *Hierarchy, m *mem.Machine, walk func()) {
	t.Helper()
	machine := mem.DefaultKNL()
	pt := mem.NewPageTable(mem.TierDDR)
	const seg = 256 << 20 // untyped: both address arithmetic and sizes
	ddrBase := uint64(1) << 32
	hbwBase := uint64(2) << 32
	if err := pt.SetCoarseRange(ddrBase, seg, mem.TierDDR); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetCoarseRange(hbwBase, seg, mem.TierMCDRAM); err != nil {
		t.Fatal(err)
	}
	// A 16 MB page-granular promotion inside the DDR segment (what an
	// online migration or partitioned placement produces).
	pt.SetRange(ddrBase+64<<20, 16*units.MB, mem.TierMCDRAM)

	h, err := NewHierarchy(&machine, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Each batch streams a fresh 256 KB window of both segments (line
	// stride through DDR, sub-line stride through MCDRAM so same-line
	// hits are booked in bulk) and gathers at random over the promoted
	// range and the whole DDR segment, hitting radix pages, coarse
	// pages and LLC alike. The window advances per call, so steady
	// state keeps missing.
	const window = 256 << 10
	rng := xrand.New(7)
	var off uint64
	walk = func() {
		h.AccessRun(ddrBase+off, 64, window, window/64)
		h.AccessRun(hbwBase+off, 16, window, window/16)
		h.AccessRandomRun(ddrBase+64<<20, 16<<20, 4096, rng)
		h.AccessRandomRun(ddrBase, seg, 4096, rng)
		off = (off + window) % seg
	}
	return h, &machine, walk
}

// TestHierarchyAccessZeroAllocs pins the central claim of the hot-path
// overhaul: walking references through L1/LLC/page-table/traffic does
// not allocate in steady state.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	_, _, walk := hotPathFixture(t)
	walk() // warm up caches and counters
	allocs := testing.AllocsPerRun(100, walk)
	if allocs != 0 {
		t.Errorf("AccessRun/AccessRandomRun batch allocates %.1f times, want 0", allocs)
	}
}

// TestAccessWithDisabledRecorderZeroAllocs pins the flight recorder's
// zero-overhead contract where it matters most: a run that carries a
// disabled (nil) recorder must walk the access path — and skip its
// event emission — without a single allocation. This is the guard the
// observability layer must never break; if it fires, an emit path is
// letting an event escape to the heap before the nil check.
func TestAccessWithDisabledRecorderZeroAllocs(t *testing.T) {
	_, _, walk := hotPathFixture(t)
	walk()
	var rec *obs.Recorder // every untraced run carries exactly this
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		walk()
		rec.EmitGate(obs.GateEvent{Epoch: i, Decision: obs.DecisionAccept, Moves: 1})
		rec.EmitEpoch(obs.EpochEvent{Epoch: i, Refs: int64(i)})
		i++
	})
	if allocs != 0 {
		t.Errorf("access batch + disabled recorder allocates %.1f times, want 0", allocs)
	}
}

// TestDrainPhaseZeroAllocs pins the Traffic.Reset fix: draining a phase
// must reuse the per-tier counters in place instead of reallocating
// them — a phase drain runs at every phase boundary of every simulated
// run.
func TestDrainPhaseZeroAllocs(t *testing.T) {
	h, m, walk := hotPathFixture(t)
	walk()
	allocs := testing.AllocsPerRun(100, func() {
		walk()
		h.DrainPhase(m.Cores)
	})
	if allocs != 0 {
		t.Errorf("DrainPhase allocates %.1f times per drain, want 0", allocs)
	}
}
