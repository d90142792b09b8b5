package advisor

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/runerr"
	"repro/internal/units"
)

// ErrNodeLimit is the typed sentinel wrapped by the exact solver's
// node-budget overrun, so callers can branch on it with errors.Is —
// the degradation ladder in adviseHierarchyStrategy does exactly that.
var ErrNodeLimit = errors.New("advisor: exact solver node limit")

// This file implements the ROADMAP's "ILP solver strategy": an exact
// N-tier placement solver that anchors the waterfall the way ExactDP
// anchors the two-tier ablation. The waterfall is a cascade of
// independent greedy knapsacks; ExactNTier solves the joint problem —
// one assignment variable per object×tier, a capacity constraint per
// tier, objective Σ misses × effective-perf — by branch-and-bound with
// an LP-relaxation bound for pruning. It is pseudo-exponential in the
// worst case and meant for oracle duty (property tests, optimality-gap
// measurements, goldens), not for production-sized object counts.

// HierarchyStrategy is the whole-hierarchy extension seam of Strategy:
// a strategy that assigns objects across ALL tiers in one solve
// instead of being handed one knapsack per tier by the waterfall
// cascade. Advise detects it by type assertion, so every facade that
// accepts a Strategy — Advise, AdviseHierarchy, Pipeline, RunSweep,
// the command-line tools — accepts a HierarchyStrategy unchanged.
type HierarchyStrategy interface {
	Strategy
	// SelectHierarchy returns, keyed by tier name, the objects assigned
	// to each non-default tier. Objects absent from every returned
	// slice stay on the default tier. tiers arrive effectively-fastest
	// first (the order the waterfall fills) and def names the default
	// tier; each returned slice must respect its tier's capacity at
	// page granularity.
	SelectHierarchy(objs []Object, tiers []TierConfig, def string) (map[string][]Object, error)
}

// DefaultMaxNodes bounds the branch-and-bound search when
// ExactNTier.MaxNodes is zero. The bound exists to turn a pathological
// instance into a diagnosable error instead of a hung test; typical
// oracle-sized instances (≤ ~20 objects) stay orders of magnitude
// below it.
const DefaultMaxNodes = 4 << 20

// ExactNTier is the exact N-tier placement solver. Conforming to
// Strategy, it drops into every seam the greedy strategies use:
//
//   - Through the legacy per-knapsack seam (Select) it delegates to
//     ExactDP, so a two-tier degenerate configuration — one fast tier
//     over a trailing default — produces reports bit-identical to the
//     paper's exact reference (only the strategy label differs).
//   - Through SelectHierarchy it solves the joint object×tier
//     assignment: hard page-granular capacity constraints on every
//     non-default tier, the default tier as the unbounded absorber,
//     objective Σ misses × effective-perf of the assigned tier — the
//     topology-aware RelativePerf/Distance pricing, so on multi-domain
//     machines the optimum is taken from the accessing domain's point
//     of view.
//
// The model is EXACTLY the region any Strategy report can reach
// (entries bounded by their tiers' budgets, everything else implicitly
// on the default) priced exactly as ReportObjective prices it, so the
// oracle guarantee is structural: no strategy's report can ever score
// above the exact objective. The flip side is that the linear pricing
// assigns no cost to crowding the default tier, so banishing cold
// objects below the default — which the greedy waterfall does to
// control WHICH data the engine spills to the floor — is never
// objective-improving and never appears in exact reports; the
// greedy-vs-exact gap measures what that spill-safety costs under the
// advisor's own pricing.
//
// Like the greedy strategies, objects without sampled misses are never
// moved off the default tier and consume no budget.
type ExactNTier struct {
	// MaxNodes bounds the branch-and-bound search (0 = DefaultMaxNodes).
	// When the bound is hit the solver returns ErrNodeLimit; the
	// advise layer then degrades to the greedy waterfall and stamps
	// the report with a Degraded marker — an oracle must not lie, so
	// the marker (not the strategy label) is the honesty mechanism.
	MaxNodes int64

	// Strict disables graceful degradation: a node-limit or deadline
	// overrun surfaces as an error instead of a Degraded greedy
	// report. The property suite runs strict — an oracle answer there
	// must be exact or absent.
	Strict bool
}

// Name implements Strategy.
func (ExactNTier) Name() string { return "exact" }

// Select implements the legacy one-knapsack seam by delegating to the
// existing exact DP — the fall-back used when only one fast tier
// exists, and the reason two-tier degenerate reports match ExactDP
// bit for bit.
func (ExactNTier) Select(objs []Object, budget int64) []Object {
	return ExactDP{}.Select(objs, budget)
}

// nTierCand is one solver candidate: an object with sampled misses,
// carrying its input position for deterministic reconstruction.
type nTierCand struct {
	idx     int // index into the input slice
	pages   int64
	misses  int64
	density float64 // misses per page
}

// NTierSolveStats is the flight recorder's view of one branch-and-
// bound solve: nodes explored, subtrees cut by the LP-relaxation
// bound, and the best objective found. RootBound is the LP-relaxation
// bound of the whole instance — an upper bound on the true optimum,
// valid even when the search overran, which is what lets a degraded
// report carry a guaranteed objective-ratio bound.
type NTierSolveStats struct {
	Nodes     int64
	Pruned    int64
	Best      float64
	Overrun   bool
	RootBound float64
}

// SelectHierarchy implements HierarchyStrategy: branch-and-bound over
// the object×tier assignment space, pruned by the fractional
// (LP-relaxation) bound of the remaining suffix. Candidates are
// branched in descending miss-density order and tiers tried fastest
// first, so the first leaf reached is the greedy fit and every later
// improvement tightens the bound.
func (e ExactNTier) SelectHierarchy(objs []Object, tiers []TierConfig, def string) (map[string][]Object, error) {
	sel, _, err := e.selectHierarchy(context.Background(), objs, tiers, def)
	return sel, err
}

// selectHierarchy is the cancelable solve with search statistics — the
// stats are valid (and reported) even when the node budget overruns.
// The DFS polls ctx every ~64k nodes — cheap against the per-node bound
// computation — and stops the search on cancellation or deadline. A
// deadline is reported as a runerr.ErrCanceled wrapping
// context.DeadlineExceeded, which the advise layer may treat as
// degradable exactly like a node limit; a plain cancellation always
// propagates.
func (e ExactNTier) selectHierarchy(ctx context.Context, objs []Object, tiers []TierConfig, def string) (map[string][]Object, NTierSolveStats, error) {
	if len(tiers) < 2 {
		return nil, NTierSolveStats{}, fmt.Errorf("advisor: exact solver needs at least two tiers, got %d", len(tiers))
	}
	maxNodes := e.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	var cands []nTierCand
	var totalPages int64
	for i, o := range objs {
		p := o.pages()
		if o.Misses <= 0 || p <= 0 {
			continue
		}
		cands = append(cands, nTierCand{
			idx: i, pages: p, misses: o.Misses,
			density: float64(o.Misses) / float64(p),
		})
		totalPages += p
	}
	n := len(cands)

	perf := make([]float64, len(tiers))
	caps := make([]int64, len(tiers))
	defIdx := -1
	for t, tc := range tiers {
		perf[t] = tc.effectivePerf()
		caps[t] = tc.Capacity / units.PageSize
		if tc.Name == def {
			defIdx = t
		}
	}
	if defIdx < 0 {
		return nil, NTierSolveStats{}, fmt.Errorf("advisor: default tier %q not in hierarchy", def)
	}
	// The default tier is the unbounded absorber: a report's entries
	// are bounded by their tiers' budgets, but whatever no entry names
	// simply stays on the default — the waterfall's implicit remainder
	// has no capacity check, so neither may the oracle's, or a greedy
	// report stashing leftovers there could score above "exact".
	// totalPages is enough room for every candidate at once.
	caps[defIdx] = totalPages

	// Tiers effectively no faster than the default (≠ the default) are
	// dominated: assigning there can only lower the objective, so the
	// search skips them. This is also why exact reports never contain
	// banishments — see the type comment.
	dominated := make([]bool, len(tiers))
	for t := range tiers {
		dominated[t] = t != defIdx && perf[t] <= perf[defIdx]
	}

	// Branch order: miss density descending, deterministic tie-breaks.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		if cands[i].misses != cands[j].misses {
			return cands[i].misses > cands[j].misses
		}
		return objs[cands[i].idx].ID < objs[cands[j].idx].ID
	})

	assign := make([]int, n)
	bestAssign := make([]int, n)
	best := -1.0
	found := false
	rem := append([]int64(nil), caps...)
	scratch := make([]int64, len(tiers))
	var nodes, pruned int64
	var overrun, canceled bool

	// bound is the fractional-relaxation optimum of the suffix k..n-1
	// against the remaining capacities: page-mass poured density-first
	// into the fastest remaining capacity. Product-form profits
	// (density × perf) make the sorted greedy pour the exact LP
	// optimum (rearrangement inequality), hence a valid upper bound on
	// every integral completion.
	bound := func(k int) float64 {
		copy(scratch, rem)
		b := 0.0
		ti := 0
		for i := k; i < n; i++ {
			left := cands[i].pages
			for left > 0 {
				for scratch[ti] <= 0 {
					// In range: the relaxed default keeps aggregate
					// capacity at or above the unassigned page mass.
					ti++
				}
				take := min(left, scratch[ti])
				scratch[ti] -= take
				left -= take
				b += float64(take) * cands[i].density * perf[ti]
			}
		}
		return b
	}

	var dfs func(k int, cur float64)
	dfs = func(k int, cur float64) {
		if overrun || canceled {
			return
		}
		if nodes++; nodes > maxNodes {
			overrun = true
			return
		}
		if nodes&0xFFFF == 0 && ctx.Err() != nil {
			canceled = true
			return
		}
		if k == n {
			if cur > best {
				best = cur
				found = true
				copy(bestAssign, assign)
			}
			return
		}
		if found && cur+bound(k) <= best+1e-9 {
			pruned++
			return
		}
		for t := range tiers {
			if dominated[t] || rem[t] < cands[k].pages {
				continue
			}
			assign[k] = t
			rem[t] -= cands[k].pages
			dfs(k+1, cur+float64(cands[k].misses)*perf[t])
			rem[t] += cands[k].pages
		}
	}
	rootBound := bound(0)
	// An already-done context cancels before the search starts — the
	// in-search poll only fires every ~64k nodes, far more than a small
	// instance ever explores, so without this check a pre-expired
	// deadline would be honoured only on large instances.
	if ctx.Err() != nil {
		canceled = true
	} else {
		dfs(0, 0)
	}
	stats := NTierSolveStats{Nodes: nodes, Pruned: pruned, Overrun: overrun, RootBound: rootBound}
	if found {
		stats.Best = best
	}
	if canceled {
		return nil, stats, fmt.Errorf("advisor: exact solver stopped after %d branch-and-bound nodes: %w",
			nodes, runerr.Canceled(ctx))
	}
	if overrun {
		return nil, stats, fmt.Errorf("%w: exceeded %d branch-and-bound nodes on %d objects × %d tiers; raise ExactNTier.MaxNodes",
			ErrNodeLimit, maxNodes, n, len(tiers))
	}

	// Reconstruct per-tier selections in input order, the ExactDP
	// convention.
	byTier := make([][]int, len(tiers))
	for ci, t := range bestAssign {
		byTier[t] = append(byTier[t], cands[ci].idx)
	}
	out := make(map[string][]Object, len(tiers))
	for t := range tiers {
		if t == defIdx || len(byTier[t]) == 0 {
			continue
		}
		sort.Ints(byTier[t])
		sel := make([]Object, 0, len(byTier[t]))
		for _, oi := range byTier[t] {
			sel = append(sel, objs[oi])
		}
		out[tiers[t].Name] = sel
	}
	return out, stats, nil
}

// rejectHierarchyStrategyCascade guards the advisors that only use a
// Strategy's one-knapsack seam (time-aware, partitioned): cascading a
// hierarchy-aware solver tier by tier is NOT a joint solve, yet the
// report would still carry its name — an oracle must not lie, so
// N-tier configurations are refused. The two-tier degenerate is
// allowed: there the strategy only supplies the packing order, exactly
// as for every greedy strategy.
func rejectHierarchyStrategyCascade(variant string, strat Strategy, tiers []TierConfig, def string) error {
	if _, ok := strat.(HierarchyStrategy); ok && !(len(tiers) == 2 && tiers[1].Name == def) {
		return fmt.Errorf("advisor: strategy %s solves whole hierarchies jointly and has no %s variant; a per-tier cascade would mislabel its output as exact",
			strat.Name(), variant)
	}
	return nil
}

// ReportObjective prices a report's placement of objs under mc: the
// sum over all objects of misses × effective performance of the tier
// each landed on (no entry = the default tier). It is the quantity
// ExactNTier maximizes, so strategy/exact objective ratios measure a
// strategy's optimality gap — ObjectiveRatio below.
func ReportObjective(objs []Object, rep *Report, mc MemoryConfig) float64 {
	perf := make(map[string]float64, len(mc.Tiers))
	for _, t := range mc.Tiers {
		perf[t.Name] = t.effectivePerf()
	}
	_, def := mc.hierarchy()
	tierOf := make(map[string]string, len(rep.Entries))
	for _, e := range rep.Entries {
		tierOf[e.ID] = e.Tier
	}
	var v float64
	for _, o := range objs {
		p, ok := perf[tierOf[o.ID]]
		if !ok {
			p = perf[def]
		}
		v += float64(o.Misses) * p
	}
	return v
}

// ObjectiveRatio is got's objective as a fraction of exact's — the
// optimality gap a greedy report leaves against the exact oracle
// (1.0 = optimal). Returns 1 when the exact objective is zero (no
// sampled misses: every placement is equally good).
func ObjectiveRatio(objs []Object, got, exact *Report, mc MemoryConfig) float64 {
	e := ReportObjective(objs, exact, mc)
	if e == 0 {
		return 1
	}
	return ReportObjective(objs, got, mc) / e
}
