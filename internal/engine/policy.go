package engine

import (
	"repro/internal/alloc"
	"repro/internal/callstack"
	"repro/internal/units"
)

// Policy decides where each dynamic allocation lands. Implementations
// range from "everything on DDR" to the paper's auto-hbwmalloc
// interposition library; the engine is agnostic and simply routes
// every malloc/realloc/free of the workload through the policy.
type Policy interface {
	// Name labels the policy in results ("ddr", "numactl", "framework"...).
	Name() string
	// Malloc allocates size bytes for an allocation reached via the
	// given raw (runtime-address) call stack.
	Malloc(stack callstack.Stack, size int64) (uint64, error)
	// Realloc resizes a previous allocation.
	Realloc(stack callstack.Stack, addr uint64, size int64) (uint64, error)
	// Free releases an allocation.
	Free(addr uint64) error
	// OverheadCycles reports the cumulative modeled cost the policy
	// itself added (interposition, unwinding, slow allocator paths);
	// the engine charges it to the run's total time.
	OverheadCycles() units.Cycles
}

// PolicyFactory builds a policy bound to a run's allocator façade and
// program image. MakePolicy is invoked once per engine run.
type PolicyFactory func(mk *alloc.Memkind, prog *callstack.Program) (Policy, error)

// MetricsProvider is an optional Policy extension: a policy that keeps
// its own always-on counters — the online placer's solver counters
// (re-solves, objects repacked) — exposes them here
// and the engine merges the snapshot into Result.Metrics at the end of
// the run. Keys should be prefixed to avoid colliding with the
// engine's own counter names.
type MetricsProvider interface {
	MetricsSnapshot() map[string]int64
}

// baseMallocCycles is the cost of a regular malloc (glibc fast path,
// ~1 µs at 1.4 GHz) charged by the engine for every allocation
// regardless of policy.
const baseMallocCycles units.Cycles = 1400
