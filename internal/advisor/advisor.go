// Package advisor implements hmem_advisor, the paper's object-
// distribution stage (a derivative of EVOP's dmem_advisor): given the
// per-object cost statistics produced by Paramedir and a memory
// configuration (tier sizes and relative performance), it decides which
// data objects to promote to fast memory.
//
// A pure 0/1 multiple-knapsack solve is pseudo-polynomial and proved
// impractical for the paper's object counts and memory sizes, so
// hmem_advisor ships two independent greedy relaxations, both linear
// after sorting:
//
//   - Misses(θ): take objects in descending LLC-miss order, skipping
//     objects that account for less than θ percent of total misses.
//   - Density: take objects in descending misses/byte order.
//
// An exact dynamic-programming knapsack (page granularity) is included
// as a reference for the ablation benchmark that demonstrates *why*
// the relaxations exist.
package advisor

import (
	"fmt"
	"sort"

	"repro/internal/callstack"
	"repro/internal/paramedir"
	"repro/internal/units"
)

// Object is one placement candidate.
type Object struct {
	ID     string
	Site   callstack.Key // empty for statics
	Size   int64         // bytes the advisor must budget (max request)
	Misses int64         // sampled LLC misses (the cost proxy)
	Static bool          // not movable by the interposer
}

// pages returns the object's page-granular budget footprint.
func (o Object) pages() int64 { return units.PagesFor(o.Size) }

// Strategy selects objects for one knapsack (one fast tier).
type Strategy interface {
	// Name labels the strategy in reports and plots.
	Name() string
	// Select returns the chosen objects given a byte budget. The
	// returned slice preserves the strategy's packing order; the sum
	// of page-aligned sizes never exceeds budget.
	Select(objs []Object, budget int64) []Object
}

// MissesStrategy packs by descending miss count with an optional
// percentage threshold: objects contributing fewer than Threshold
// percent of total misses are never promoted, keeping rarely
// referenced objects out of fast memory even when they would fit.
type MissesStrategy struct {
	// Threshold in percent (0, 1, 5 in the paper's evaluation).
	Threshold float64
}

// Name implements Strategy.
func (s MissesStrategy) Name() string {
	return fmt.Sprintf("misses(%g%%)", s.Threshold)
}

// missesLess is the strategy's total packing order: descending miss
// count, ties broken by ascending ID so every pair of distinct
// candidates is strictly ordered.
func missesLess(a, b *Object) bool {
	if a.Misses != b.Misses {
		return a.Misses > b.Misses
	}
	return a.ID < b.ID
}

// Select implements Strategy.
func (s MissesStrategy) Select(objs []Object, budget int64) []Object {
	var total int64
	for _, o := range objs {
		total += o.Misses
	}
	cut := int64(s.Threshold / 100 * float64(total))
	return packGreedy(sortedBy(objs, missesLess), budget, func(o Object) bool {
		return o.Misses > 0 && o.Misses >= cut
	})
}

// DensityStrategy packs by descending misses-per-byte profit density —
// the classic knapsack relaxation. It favours small, hot objects and
// can strand one large buffer that a misses-ordered pack would take
// (the SNAP behaviour in Fig. 4q).
type DensityStrategy struct{}

// Name implements Strategy.
func (DensityStrategy) Name() string { return "density" }

// densityLess is the strategy's total packing order: descending
// misses-per-byte, ties broken by ascending ID.
func densityLess(a, b *Object) bool {
	da := float64(a.Misses) / float64(a.Size)
	db := float64(b.Misses) / float64(b.Size)
	if da != db {
		return da > db
	}
	return a.ID < b.ID
}

// Select implements Strategy.
func (DensityStrategy) Select(objs []Object, budget int64) []Object {
	return packGreedy(sortedBy(objs, densityLess), budget, func(o Object) bool { return o.Misses > 0 })
}

// FCFSStrategy packs in input order regardless of cost — the software
// equivalent of numactl -p 1, kept for baselines and tests.
type FCFSStrategy struct{}

// Name implements Strategy.
func (FCFSStrategy) Name() string { return "fcfs" }

// Select implements Strategy.
func (FCFSStrategy) Select(objs []Object, budget int64) []Object {
	return packGreedy(append([]Object(nil), objs...), budget, func(Object) bool { return true })
}

// sortedBy returns a copy of objs sorted by less.
func sortedBy(objs []Object, less func(a, b *Object) bool) []Object {
	sorted := append([]Object(nil), objs...)
	sort.SliceStable(sorted, func(i, j int) bool { return less(&sorted[i], &sorted[j]) })
	return sorted
}

// packGreedy walks sorted candidates, taking each eligible object that
// still fits in the remaining page-granular budget.
func packGreedy(sorted []Object, budget int64, eligible func(Object) bool) []Object {
	var out []Object
	remaining := budget / units.PageSize
	for _, o := range sorted {
		if !eligible(o) {
			continue
		}
		p := o.pages()
		if p == 0 || p > remaining {
			continue
		}
		remaining -= p
		out = append(out, o)
	}
	return out
}

// ExactDP solves the 0/1 knapsack exactly by dynamic programming at
// page granularity. Cost is O(len(objs) * budgetPages) time and
// O(budgetPages) space — the pseudo-polynomial blow-up that makes it
// impractical for hundreds of objects against multi-gigabyte tiers,
// demonstrated by BenchmarkAblationKnapsackExactVsGreedy.
type ExactDP struct{}

// Name implements Strategy.
func (ExactDP) Name() string { return "exact-dp" }

// Select implements Strategy.
func (ExactDP) Select(objs []Object, budget int64) []Object {
	w := budget / units.PageSize
	if w <= 0 || len(objs) == 0 {
		return nil
	}
	// best[c] = max misses achievable with capacity c; choice tracks
	// taken objects per (object, capacity) via bitsets per object row.
	best := make([]int64, w+1)
	taken := make([][]bool, len(objs))
	for i := range taken {
		taken[i] = make([]bool, w+1)
	}
	for i, o := range objs {
		p := o.pages()
		if p <= 0 || p > w || o.Misses <= 0 {
			continue
		}
		for c := w; c >= p; c-- {
			if v := best[c-p] + o.Misses; v > best[c] {
				best[c] = v
				taken[i][c] = true
			}
		}
	}
	// Reconstruct.
	var out []Object
	c := w
	for i := len(objs) - 1; i >= 0; i-- {
		if taken[i][c] {
			out = append(out, objs[i])
			c -= objs[i].pages()
		}
	}
	// Reverse to input order for determinism.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TotalMisses sums the misses of a selection.
func TotalMisses(objs []Object) int64 {
	var s int64
	for _, o := range objs {
		s += o.Misses
	}
	return s
}

// TotalPages sums the page footprints of a selection.
func TotalPages(objs []Object) int64 {
	var s int64
	for _, o := range objs {
		s += o.pages()
	}
	return s
}

// FromProfile converts Paramedir output into placement candidates.
func FromProfile(p *paramedir.Profile) []Object {
	objs := make([]Object, 0, len(p.Objects))
	for _, s := range p.Objects {
		objs = append(objs, Object{
			ID: s.ID, Site: s.Site, Size: s.MaxSize, Misses: s.Misses, Static: s.Static,
		})
	}
	return objs
}
