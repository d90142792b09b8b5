package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/units"
)

// The per-reference walk below is the differential oracle of the
// batched access path: one full L1→LLC→memory walk per reference, with
// the flat-mode miss run cached per page rather than per TierExtent.
// The engine never runs it; TestAccessRunMatchesPerRef holds
// AccessRun/AccessRandomRun bit-identical to it, and the routing tests
// read its per-access Result.

// Level identifies where an access was satisfied.
type Level uint8

// Access outcomes, from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelMCDRAMCache // cache-mode MCDRAM hit
	LevelMemory      // served by a memory tier (flat mode) or DDR (cache mode miss)
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	case LevelMCDRAMCache:
		return "MCDRAM$"
	case LevelMemory:
		return "MEM"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Result describes one access walked through the hierarchy.
type Result struct {
	Level Level
	Tier  mem.TierID // meaningful when Level >= LevelMCDRAMCache
}

// Access walks one memory reference of the line containing addr
// through the hierarchy, updating costs and traffic exactly as
// accessLine does, and reports where it was satisfied. OnLLCMiss sees
// refIdx 0.
func (h *Hierarchy) Access(addr uint64) Result {
	if h.l1.Access(addr) {
		h.hitCycles += h.machine.LLC.L1Hit
		return Result{Level: LevelL1}
	}
	if h.llc.Access(addr) {
		h.hitCycles += h.machine.LLC.HitCycles
		return Result{Level: LevelLLC}
	}
	if h.OnLLCMiss != nil {
		h.OnLLCMiss(addr, 0)
	}
	line := h.machine.LineSize
	if h.mcCache != nil {
		if h.mcCache.Access(addr) {
			h.traffic.Add(mem.TierMCDRAM, line)
			return Result{Level: LevelMCDRAMCache, Tier: mem.TierMCDRAM}
		}
		h.traffic.Add(mem.TierDDR, line)
		h.traffic.Add(mem.TierDDR, line/4)
		h.traffic.Add(mem.TierMCDRAM, line)
		return Result{Level: LevelMemory, Tier: mem.TierDDR}
	}
	if h.runLines > 0 && addr >= h.runStart && addr < h.runEnd && h.runGen == h.pt.Gen() {
		h.runLines++
		return Result{Level: LevelMemory, Tier: h.runTier}
	}
	h.flushRun()
	// The containing page is the cheapest always-correct constant-tier
	// extent: overrides are page-granular, and coarse ranges only break
	// pages at their byte-granular edges, which TierOf resolves per
	// address anyway. The batched path installs wider TierExtent runs
	// in the same cache; both validate by bounds+Gen, so they compose.
	tier := h.pt.TierOf(addr)
	start := addr / uint64(units.PageSize) * uint64(units.PageSize)
	h.runStart, h.runEnd = start, start+uint64(units.PageSize)
	h.runGen, h.runTier, h.runLines = h.pt.Gen(), tier, 1
	return Result{Level: LevelMemory, Tier: tier}
}
