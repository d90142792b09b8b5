package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	hm "repro"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 3

// sweepScale is the RefScale of the sweep workloads' runs at --scale 1:
// half the apps' access volume, so a 35-s run repeats its grid four or
// five times and the medians have samples to work with.
// The grids, their cells and memoized profiles are unchanged.
const sweepScale = 0.5

// productionSeedOffset is the pipeline's production-run seed: the
// execute stage runs the program at Seed+0x9e37 (another address-space
// layout than the profiling run). The replay mirrors it, and the check
// that the replay reproduces RunSweep's digest pins it.
const productionSeedOffset = 0x9e37

// grid is a sweep workload's generated input.
type grid struct {
	points []hm.SweepPoint
	params map[string]any
}

type gridFunc func(seed uint64, scale float64) grid

var fig4Strategies = []struct {
	name string
	s    hm.Strategy
}{
	{"density", hm.StrategyDensity},
	{"misses(0%)", hm.StrategyMisses(0)},
	{"misses(1%)", hm.StrategyMisses(1)},
	{"misses(5%)", hm.StrategyMisses(5)},
}

// fig4Grid is the paper's Figure 4 over all eight Table-I apps: per
// app the four baselines (DDR, numactl, autohbw, cache mode) and the
// four budgets × four strategies pipeline plane, each app at its own
// seed derived from the run's seed.
func fig4Grid(seed uint64, scale float64) grid {
	var pts []hm.SweepPoint
	var apps []string
	for i, w := range hm.Workloads() {
		s := subSeed(seed, "fig4", i)
		m := hm.MachineFor(w)
		ec := hm.ExecuteConfig{Machine: m, Seed: s, RefScale: scale}
		pts = append(pts,
			hm.BaselinePoint("ddr", w, hm.BaselineDDR, ec),
			hm.BaselinePoint("numactl", w, hm.BaselineNumactl, ec),
			hm.BaselinePoint("autohbw/1m", w, hm.BaselineAutoHBW, ec),
			hm.BaselinePoint("cache", w, hm.BaselineCacheMode, ec))
		for _, b := range hm.BudgetsFor(w) {
			for _, st := range fig4Strategies {
				pts = append(pts, hm.PipelinePoint(fmt.Sprintf("%s@%dMB", st.name, b/hm.MB), w, hm.PipelineConfig{
					Machine: m, Seed: s, Budget: b, Strategy: st.s, RefScale: scale,
				}))
			}
		}
		apps = append(apps, w.Name)
	}
	var strategies []string
	for _, st := range fig4Strategies {
		strategies = append(strategies, st.name)
	}
	return grid{points: pts, params: map[string]any{
		"apps": apps, "cells": len(pts), "strategies": strategies,
		"baselines": []string{"ddr", "numactl", "autohbw/1m", "cache"},
		"budgets":   "Figure-4 budgets of each app (32-256 MB per rank; bt 32 MB-16 GB)",
	}}
}

// onlineEpochs are the epoch lengths (iterations per epoch) swept.
var onlineEpochs = []int{1, 2, 4}

// onlineGrid is the online placer over apps × budgets × epoch lengths:
// ntierdemo on the KNL+Optane node (waterfall re-solves, demotion below
// DDR), phaseshift (the hot set rotates, so pages migrate), and every
// Table-I app (stable, so the gate should refuse every move).
func onlineGrid(seed uint64, scale float64) grid {
	var pts []hm.SweepPoint
	add := func(w *hm.Workload, m hm.Machine, budgets []int64) {
		s := subSeed(seed, "online/"+w.Name, 0)
		for _, b := range budgets {
			for _, e := range onlineEpochs {
				pts = append(pts, hm.OnlinePoint(fmt.Sprintf("online@%dMB/every%d", b/hm.MB, e), w, hm.OnlineConfig{
					Machine: m, Seed: s, Budget: b, EveryIterations: e, RefScale: scale,
				}))
			}
		}
	}
	nt := hm.NTierDemoWorkload()
	add(nt, hm.PerRankMachine(hm.KNLOptane(), nt.Ranks, nt.Threads), []int64{64 * hm.MB, 128 * hm.MB, 256 * hm.MB})
	ps, err := hm.WorkloadByName("phaseshift")
	if err != nil {
		panic(err) // the workload is registered by the library itself
	}
	add(ps, hm.MachineFor(ps), []int64{16 * hm.MB, 24 * hm.MB})
	apps := []string{nt.Name, ps.Name}
	for _, w := range hm.Workloads() {
		add(w, hm.MachineFor(w), hm.BudgetsFor(w))
		apps = append(apps, w.Name)
	}
	return grid{points: pts, params: map[string]any{
		"apps": apps, "cells": len(pts), "epoch_iterations": onlineEpochs,
		"budgets": "ntierdemo 64/128/256 MB on KNL+Optane; phaseshift 16/24 MB; Table-I apps their Figure-4 budgets",
	}}
}

// runSweepWorkload runs a RunSweep workload. The grid is run app by
// app, one RunSweep call per app's cells as experiments -fig 4 runs
// it, cycling over the apps until --seconds would be exceeded (every
// app at least once), with the host-speed yardstick after each call.
// wall_s sums each app's median wall, so a burst of host contention
// moves one repeat, not the figure. The op latencies are every cell's
// first k walls, k the fewest repeats any cell got, so the cut of the
// last cycle does not weight one app over another. Both are scaled by
// the run's yardstick factor.
func runSweepWorkload(o *options, build gridFunc) (*outcome, error) {
	out := &outcome{host: &hostSpeed{}}
	var g grid
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		g = build(o.seed, o.scale*sweepScale)
		// Warm-up: the grid's first cell, so lazy runtime set-up (heap
		// growth, first page faults) is paid before timing starts.
		if _, err := hm.RunSweep(g.points[:1], hm.SweepOptions{Workers: 1}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
	}
	out.params = g.params
	out.params["workers"] = o.nproc
	out.params["ref_scale"] = o.scale * sweepScale
	if o.trace {
		return out, tracedSweep(o, g, out)
	}
	apps := appRanges(g.points)
	walls := make([][]float64, len(apps))
	digests := make([]string, len(apps))
	first := make([]cell, len(g.points))
	lat := make([][]float64, len(g.points))
	// okCells counts each app's cells that passed their checks in the
	// first cycle; an app whose repeated sweep is not reproducible
	// counts none.
	okCells := make([]int, len(apps))
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
cycles:
	for cycle := 0; ; cycle++ {
		for a, r := range apps {
			if cycle > 0 && time.Since(start)+time.Duration(walls[a][len(walls[a])-1]*float64(time.Second)) > budget {
				break cycles
			}
			pts := g.points[r[0]:r[1]]
			cells, wall, err := sweepRound(pts, o.nproc)
			if err != nil {
				return nil, err
			}
			out.host.sample()
			ok := out.addCells(pts, cells)
			for i, c := range cells {
				lat[r[0]+i] = append(lat[r[0]+i], c.wall.Seconds())
			}
			d := digestCells(pts, cells)
			if cycle == 0 {
				copy(first[r[0]:], cells)
				digests[a] = d
				okCells[a] = ok
			} else if d != digests[a] {
				out.fail(int64(ok), "%s: a repeated sweep's digest %s differs from the first's %s", pts[0].Workload.Name, d, digests[a])
				okCells[a] = 0
			}
			walls[a] = append(walls[a], wall.Seconds())
			out.repeats++
		}
	}
	if out.host.err != nil {
		return nil, out.host.err
	}
	f := out.host.factor()
	var wall float64
	for a := range apps {
		wall += median(walls[a]) * f
	}
	out.wall = time.Duration(wall * float64(time.Second))
	k := len(lat[0])
	for _, l := range lat {
		k = min(k, len(l))
	}
	for _, l := range lat {
		for _, v := range l[:k] {
			out.ops = append(out.ops, time.Duration(v*f*float64(time.Second)))
		}
	}
	out.digest = digestCells(g.points, first)
	ok := 0
	for _, n := range okCells {
		ok += n
	}
	out.goodput = float64(ok) / wall
	return out, nil
}

// appRanges splits a grid into its apps' runs of consecutive cells.
func appRanges(pts []hm.SweepPoint) [][2]int {
	var out [][2]int
	for i := range pts {
		if i == 0 || pts[i].Workload.Name != pts[i-1].Workload.Name {
			out = append(out, [2]int{i, i})
		}
		out[len(out)-1][1] = i + 1
	}
	return out
}

// addCells checks cells and returns how many passed.
func (out *outcome) addCells(pts []hm.SweepPoint, cells []cell) int {
	bad, msgs := checkCells(pts, cells)
	ok := 0
	for i := range cells {
		if bad[i] {
			out.failed++
		} else {
			ok++
		}
	}
	out.attempted += int64(len(cells))
	out.failures = append(out.failures, msgs...)
	return ok
}

// sweepRound runs the grid once through RunSweep.
func sweepRound(pts []hm.SweepPoint, workers int) ([]cell, time.Duration, error) {
	start := time.Now()
	res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: workers})
	wall := time.Since(start)
	if res == nil {
		return nil, 0, err // a malformed grid; cell failures come back in res
	}
	cells := make([]cell, len(res))
	for i, r := range res {
		cells[i] = cell{run: r.Run, wall: r.Wall, profWall: r.ProfileWall, err: r.Err}
		if r.Pipeline != nil {
			cells[i].prof, cells[i].rep = r.Pipeline.ProfilingRun, r.Pipeline.Report
		}
	}
	return cells, wall, nil
}

// tracedSweep is the traced run of a sweep workload. It runs the grid
// once through RunSweep, one call per app as the timed run makes them,
// for the sweep-level and model-statistics rows, then replays it twice through the public stage functions with the
// same worker count: untraced, then recording spans. Both replays must
// reproduce RunSweep's digest; the spans give the engine, paramedir
// and advisor rows, and the two replay walls the tracing overhead.
func tracedSweep(o *options, g grid, out *outcome) error {
	l := newLedger()
	var cells []cell
	var wall time.Duration
	for _, r := range appRanges(g.points) {
		c, w, err := sweepRound(g.points[r[0]:r[1]], o.nproc)
		if err != nil {
			return err
		}
		cells, wall = append(cells, c...), wall+w
	}
	out.addCells(g.points, cells)
	for _, c := range cells {
		out.ops = append(out.ops, c.wall)
	}
	out.digest = digestCells(g.points, cells)
	out.wall, out.repeats = wall, 1
	sweepLedger(l, g.points, cells, wall, o.nproc)

	pairs := ddrPairs(g.points)
	offCells, offWall := replay(g.points, pairs, o.nproc, nil)
	tr := newTracer()
	onCells, onWall := replay(g.points, pairs, o.nproc, tr)
	for _, rc := range [][]cell{offCells, onCells} {
		out.attempted += int64(len(rc))
		if d := digestCells(g.points, rc); d != out.digest {
			out.fail(int64(len(rc)), "stage-by-stage replay digest %s differs from RunSweep's %s", d, out.digest)
		}
	}
	out.spans = tr.spans
	spanLedger(l, tr.spans)
	l["engine.monitor_overhead_pct"] = overheadPct(tr.spans, kindProfile)
	l["online.overhead_pct"] = overheadPct(tr.spans, kindOnline)
	l["bench.trace_overhead_pct"] = 100 * (onWall.Seconds()/offWall.Seconds() - 1)
	for op, cov := range coverage(tr.spans, "cell") {
		if cov < 0.9 {
			out.fail(1, "layer spans cover %.1f%% of cell %d, below 90%%", 100*cov, op)
		}
	}
	out.layer = l
	return nil
}

// sweepLedger fills the sweep rows and the model statistics from one
// round of the grid; wall is the summed wall of its RunSweep calls, so
// the idle tail at the end of each call counts against
// sweep.worker_busy_frac. Pipeline cells that memoized one profile share its
// ProfilingRun, so distinct profiling runs are the memo's misses.
func sweepLedger(l map[string]float64, pts []hm.SweepPoint, cells []cell, wall time.Duration, workers int) {
	var tot runTotals
	profiles := map[*hm.RunResult]bool{}
	placements := map[string]bool{}
	var busy time.Duration
	pipelineCells := 0
	for i, c := range cells {
		if c.err != nil {
			continue
		}
		tot.add(c.run)
		busy += c.wall
		p := pts[i].Pipeline
		if p == nil {
			continue
		}
		pipelineCells++
		if !profiles[c.prof] {
			profiles[c.prof] = true
			tot.add(c.prof)
			busy += c.profWall
		}
		placements[hm.ConfigFingerprint(struct {
			Profile        string
			Entries        any
			Budget         int64
			Tiers          any
			LBSize, UBSize int64
			Interpose      hm.InterposeOptions
		}{profileKey(pts[i]), c.rep.Entries, c.rep.Budget, c.rep.Tiers, c.rep.LBSize, c.rep.UBSize, p.Interpose})] = true
	}
	tot.fill(l)
	l["sweep.profile_memo_misses"] = float64(len(profiles))
	l["sweep.profile_memo_hits"] = float64(pipelineCells - len(profiles))
	if pipelineCells > 0 {
		l["sweep.distinct_placement_frac"] = float64(len(placements)) / float64(pipelineCells)
	}
	l["sweep.worker_busy_frac"] = busy.Seconds() / (float64(min(workers, len(cells))) * wall.Seconds())
}

// profileConfig is the profiling stage's slice of a pipeline cell.
func profileConfig(p *hm.PipelineConfig) hm.ProfileConfig {
	return hm.ProfileConfig{
		Machine: p.Machine, Cores: p.Cores, Seed: p.Seed,
		SamplePeriod: p.SamplePeriod, MinAllocSize: p.MinAllocSize, RefScale: p.RefScale,
	}
}

// profileKey is the content key of a pipeline cell's profiling run:
// the workload and every profiling parameter.
func profileKey(p hm.SweepPoint) string {
	return hm.ConfigFingerprint(struct {
		Workload *hm.Workload
		Config   hm.ProfileConfig
	}{p.Workload, profileConfig(p.Pipeline)})
}

// pairOf names the (workload, seed) a point simulates.
func pairOf(p hm.SweepPoint) string {
	return fmt.Sprintf("%s/%d", p.Workload.Name, pointSeed(p))
}

// ddrPairs returns a DDR baseline run for every (workload, seed) that
// the grid profiles or runs online but has no DDR baseline cell for,
// so the traced replay can price monitoring and the online placer
// against plain DDR execution.
func ddrPairs(pts []hm.SweepPoint) []hm.SweepPoint {
	have := map[string]bool{}
	for _, p := range pts {
		if p.Baseline != nil && p.Baseline.Baseline == hm.BaselineDDR {
			have[pairOf(p)] = true
		}
	}
	var out []hm.SweepPoint
	for _, p := range pts {
		var ec hm.ExecuteConfig
		switch {
		case p.Pipeline != nil:
			ec = hm.ExecuteConfig{Machine: p.Pipeline.Machine, Cores: p.Pipeline.Cores, Seed: p.Pipeline.Seed, RefScale: p.Pipeline.RefScale}
		case p.Online != nil:
			ec = hm.ExecuteConfig{Machine: p.Online.Machine, Cores: p.Online.Cores, Seed: p.Online.Seed, RefScale: p.Online.RefScale}
		default:
			continue
		}
		if k := pairOf(p); !have[k] {
			have[k] = true
			out = append(out, hm.BaselinePoint("ddr", p.Workload, hm.BaselineDDR, ec))
		}
	}
	return out
}

// parallel calls fn(worker, i) for every i in [0, n) on at most
// workers goroutines, in index order, and returns when all are done.
func parallel(n, workers int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// profiledEntry is one memoized profiling run of the replay.
type profiledEntry struct {
	once sync.Once
	run  *hm.RunResult
	prof *hm.ObjectProfile
	err  error
}

// replay runs the grid's cells, then the DDR pairs, through the public
// stage functions on workers goroutines, memoizing one Profile+Analyze
// per profiling key as RunSweep does. With a tracer every call is a
// span: each cell is a "cell" span whose children are the memo lookup
// (with Profile and Analyze under it for the cell that computed them),
// Advise and Execute, or RunBaseline, or RunOnline.
func replay(pts, pairs []hm.SweepPoint, workers int, tr *tracer) ([]cell, time.Duration) {
	var mu sync.Mutex
	memo := map[string]*profiledEntry{}
	entry := func(k string) *profiledEntry {
		mu.Lock()
		defer mu.Unlock()
		if memo[k] == nil {
			memo[k] = &profiledEntry{}
		}
		return memo[k]
	}
	cells := make([]cell, len(pts))
	start := time.Now()
	parallel(len(pts)+len(pairs), workers, func(_, i int) {
		if i < len(pts) {
			cells[i] = replayCell(i, pts[i], entry, tr)
		} else {
			replayCell(-1, pairs[i-len(pts)], entry, tr)
		}
	})
	return cells, time.Since(start)
}

// replayCell runs one point; op is its cell index, -1 for a DDR pair.
func replayCell(op int, p hm.SweepPoint, entry func(string) *profiledEntry, tr *tracer) cell {
	start := time.Now()
	cs := tr.begin(span{Op: op, Name: "cell"})
	var c cell
	switch {
	case p.Pipeline != nil:
		cfg := p.Pipeline
		ms := tr.begin(span{Parent: cs, Op: op, Name: "memo"})
		e := entry(profileKey(p))
		e.once.Do(func() {
			ps := tr.begin(span{Parent: ms, Op: op, Name: "Profile", Kind: kindProfile, Pair: pairOf(p)})
			var trace *hm.Trace
			trace, e.run, e.err = hm.Profile(p.Workload, profileConfig(cfg))
			tr.end(ps, hm.SimulatedRefs(e.run), 0)
			if e.err != nil {
				return
			}
			as := tr.begin(span{Parent: ms, Op: op, Name: "Analyze"})
			e.prof, e.err = hm.Analyze(trace)
			tr.end(as, 0, int64(len(trace.Records)))
		})
		tr.end(ms, 0, 0)
		if c.err = e.err; c.err != nil {
			break
		}
		c.prof = e.run
		as := tr.begin(span{Parent: cs, Op: op, Name: "Advise"})
		c.rep, c.err = hm.Advise(e.prof, cfg.Budget, cfg.Strategy)
		tr.endAdvise(as, c.rep)
		if c.err != nil {
			break
		}
		xs := tr.begin(span{Parent: cs, Op: op, Name: "Execute", Kind: kindExecute})
		c.run, c.err = hm.Execute(p.Workload, c.rep, cfg.Interpose, hm.ExecuteConfig{
			Machine: cfg.Machine, Cores: cfg.Cores, Seed: cfg.Seed + productionSeedOffset, RefScale: cfg.RefScale,
		})
		tr.end(xs, hm.SimulatedRefs(c.run), 0)
	case p.Baseline != nil:
		kind, pair := kindBaselineFlat, ""
		switch p.Baseline.Baseline {
		case hm.BaselineCacheMode:
			kind = kindBaselineCache
		case hm.BaselineDDR:
			pair = pairOf(p)
		}
		bs := tr.begin(span{Parent: cs, Op: op, Name: "RunBaseline", Kind: kind, Pair: pair})
		c.run, c.err = hm.RunBaseline(p.Workload, p.Baseline.Baseline, p.Baseline.Config)
		tr.end(bs, hm.SimulatedRefs(c.run), 0)
	default:
		rs := tr.begin(span{Parent: cs, Op: op, Name: "RunOnline", Kind: kindOnline, Pair: pairOf(p)})
		c.run, c.err = hm.RunOnline(p.Workload, *p.Online)
		tr.end(rs, hm.SimulatedRefs(c.run), 0)
	}
	tr.end(cs, 0, 0)
	c.wall = time.Since(start)
	return c
}
