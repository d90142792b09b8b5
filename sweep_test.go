package hybridmem_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	hm "repro"
	"repro/internal/units"
)

// sweepGrid builds the mixed grid the determinism tests run: baseline
// cells, a budget×strategy pipeline plane (sharing one profile), a
// second pipeline seed (forcing a second profile), and an online cell.
func sweepGrid(w *hm.Workload, m hm.Machine) []hm.SweepPoint {
	pts := []hm.SweepPoint{
		hm.BaselinePoint("ddr", w, hm.BaselineDDR, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
		hm.BaselinePoint("cache", w, hm.BaselineCacheMode, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
	}
	for _, budget := range []int64{32 * units.MB, 128 * units.MB} {
		for _, st := range []struct {
			name string
			s    hm.Strategy
		}{{"m0", hm.StrategyMisses(0)}, {"density", hm.StrategyDensity}} {
			pts = append(pts, hm.PipelinePoint(st.name, w, hm.PipelineConfig{
				Machine: m, Seed: 21, Budget: budget, Strategy: st.s, RefScale: 0.25,
			}))
		}
	}
	pts = append(pts,
		hm.PipelinePoint("otherseed", w, hm.PipelineConfig{
			Machine: m, Seed: 77, Budget: 128 * units.MB, RefScale: 0.25,
		}),
		hm.OnlinePoint("online", w, hm.OnlineConfig{
			Machine: m, Seed: 21, RefScale: 0.25, Budget: 128 * units.MB,
		}),
	)
	return pts
}

// TestSweepMatchesSerialLoop is the determinism acceptance test of the
// sweep engine: a parallel RunSweep must return results identical to
// executing every cell serially through the plain facade calls —
// memoized profiles, worker scheduling and all.
func TestSweepMatchesSerialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("a full sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	pts := sweepGrid(w, m)

	par, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(pts) {
		t.Fatalf("got %d results for %d points", len(par), len(pts))
	}

	for i, p := range pts {
		var wantRun *hm.RunResult
		var wantReport *hm.PlacementReport
		switch {
		case p.Pipeline != nil:
			pr, err := hm.Pipeline(p.Workload, *p.Pipeline)
			if err != nil {
				t.Fatal(err)
			}
			wantRun, wantReport = pr.Run, pr.Report
		case p.Baseline != nil:
			wantRun, err = hm.RunBaseline(p.Workload, p.Baseline.Baseline, p.Baseline.Config)
			if err != nil {
				t.Fatal(err)
			}
		default:
			wantRun, err = hm.RunOnline(p.Workload, *p.Online)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(par[i].Run, wantRun) {
			t.Errorf("point %d (%s): parallel sweep result diverged from serial call:\nsweep:  %+v\nserial: %+v",
				i, p.Label, par[i].Run, wantRun)
		}
		if wantReport != nil {
			var a, b bytes.Buffer
			if err := wantReport.Write(&a); err != nil {
				t.Fatal(err)
			}
			if err := par[i].Pipeline.Report.Write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("point %d (%s): advisor report diverged:\n--- serial ---\n%s\n--- sweep ---\n%s",
					i, p.Label, a.String(), b.String())
			}
		}
		if got := hm.SimulatedRefs(par[i].Run); got != hm.SimulatedRefs(wantRun) {
			t.Errorf("point %d (%s): refs = %d, want %d", i, p.Label, got, hm.SimulatedRefs(wantRun))
		}
	}
}

// TestSweepMemoizesProfiles checks profile-once/advise-many: every
// pipeline cell with the same profiling configuration must share the
// SAME trace and profile objects (pointer identity), while a different
// seed gets its own.
func TestSweepMemoizesProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("minife")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	pts := sweepGrid(w, m)
	res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var shared, other *hm.PipelineResult
	for i, p := range pts {
		if p.Pipeline == nil {
			continue
		}
		if p.Label == "otherseed" {
			other = res[i].Pipeline
			continue
		}
		if shared == nil {
			shared = res[i].Pipeline
			continue
		}
		if res[i].Pipeline.Trace != shared.Trace || res[i].Pipeline.Profile != shared.Profile {
			t.Errorf("point %d (%s): did not share the memoized profile artifact", i, p.Label)
		}
	}
	if shared == nil || other == nil {
		t.Fatal("grid did not contain the expected pipeline cells")
	}
	if other.Trace == shared.Trace {
		t.Error("different profiling seed must not share a trace")
	}
}

// TestSweepRejectsMalformedPoints pins the facade's validation.
func TestSweepRejectsMalformedPoints(t *testing.T) {
	w := hm.StreamWorkload()
	m := hm.DefaultKNL()
	cases := []hm.SweepPoint{
		{Label: "nothing", Workload: w},
		{Label: "both", Workload: w,
			Pipeline: &hm.PipelineConfig{Machine: m, Budget: units.MB},
			Online:   &hm.OnlineConfig{Machine: m}},
		hm.PipelinePoint("noworkload", nil, hm.PipelineConfig{Machine: m, Budget: units.MB}),
		hm.PipelinePoint("nobudget", w, hm.PipelineConfig{Machine: m}),
	}
	for _, p := range cases {
		if _, err := hm.RunSweep([]hm.SweepPoint{p}, hm.SweepOptions{}); err == nil {
			t.Errorf("point %q: RunSweep accepted a malformed point", p.Label)
		}
	}
}

// TestSweepNTierInvariantAcrossWorkers pins worker-count invariance for
// N-tier advise cells: the grid mixes exact-solver and density cells
// over several budgets of one N-tier profile (every cell shares the
// memoized artifact) and requires every run and advisor report to be
// byte-identical across worker counts AND to the serial Pipeline of
// the same cell.
func TestSweepNTierInvariantAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep grids are not -short")
	}
	w := hm.NTierDemoWorkload()
	m := hm.PerRankMachine(hm.KNLOptane(), w.Ranks, w.Threads)
	var pts []hm.SweepPoint
	for _, mb := range []int64{64, 128, 256} {
		mc := hm.MemoryConfigFor(m, mb*units.MB)
		for _, st := range []struct {
			name string
			s    hm.Strategy
		}{{"exact", hm.StrategyExactNTier}, {"density", hm.StrategyDensity}} {
			pts = append(pts, hm.PipelinePoint(fmt.Sprintf("%s-%dMB", st.name, mb), w, hm.PipelineConfig{
				Machine: m, Seed: 42, Memory: &mc, Strategy: st.s, RefScale: 0.25,
			}))
		}
	}

	serial := make([]*hm.PipelineResult, len(pts))
	for i, p := range pts {
		pr, err := hm.Pipeline(p.Workload, *p.Pipeline)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = pr
	}

	for _, workers := range []int{1, 4} {
		res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, p := range pts {
			if !reflect.DeepEqual(res[i].Run, serial[i].Run) {
				t.Errorf("workers=%d point %d (%s): run diverged from serial pipeline", workers, i, p.Label)
			}
			var a, b bytes.Buffer
			if err := serial[i].Report.Write(&a); err != nil {
				t.Fatal(err)
			}
			if err := res[i].Pipeline.Report.Write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("workers=%d point %d (%s): sweep report diverged from serial:\n--- serial ---\n%s\n--- sweep ---\n%s",
					workers, i, p.Label, a.String(), b.String())
			}
		}
	}
}

// TestSweepSharesExecutes checks execute-once-per-placement: pipeline
// cells whose advice places the same objects under the same budget,
// profiling configuration and interposer options share ONE production
// run (pointer identity), even across strategies; a different budget,
// placement, seed or interposer option gets its own; the shared runs
// equal the serial Pipeline of every cell at any worker count; and the
// trace marks the owner "miss", its sharers "hit", and carries the
// production run's events in the owner's slice only.
func TestSweepSharesExecutes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid is not -short")
	}
	w, err := hm.WorkloadByName("hpcg")
	if err != nil {
		t.Fatal(err)
	}
	m := hm.MachineFor(w)
	cfg := func(seed uint64, mb int64, s hm.Strategy) hm.PipelineConfig {
		return hm.PipelineConfig{Machine: m, Seed: seed, Budget: mb * units.MB, Strategy: s, RefScale: 0.25}
	}
	nocache := cfg(21, 32, hm.StrategyMisses(0))
	nocache.Interpose.DisableCache = true
	pts := []hm.SweepPoint{
		hm.BaselinePoint("ddr", w, hm.BaselineDDR, hm.ExecuteConfig{Machine: m, Seed: 21, RefScale: 0.25}),
		hm.PipelinePoint("m0/32", w, cfg(21, 32, hm.StrategyMisses(0))),
		hm.PipelinePoint("density/32", w, cfg(21, 32, hm.StrategyDensity)),
		hm.PipelinePoint("m0/128", w, cfg(21, 128, hm.StrategyMisses(0))),
		hm.PipelinePoint("density/128", w, cfg(21, 128, hm.StrategyDensity)),
		hm.PipelinePoint("m0/32@77", w, cfg(77, 32, hm.StrategyMisses(0))),
		hm.PipelinePoint("m0/32-nocache", w, nocache),
		hm.PipelinePoint("m0/32-again", w, cfg(21, 32, hm.StrategyMisses(0))),
		hm.PipelinePoint("m0/24", w, cfg(21, 24, hm.StrategyMisses(0))),
	}
	// owner[i] is the cell whose production run cell i must share.
	owner := []int{-1, 1, 1, 3, 4, 5, 6, 1, 8}

	serial := make([]*hm.RunResult, len(pts))
	for i, p := range pts {
		if p.Pipeline == nil {
			serial[i], err = hm.RunBaseline(p.Workload, p.Baseline.Baseline, p.Baseline.Config)
		} else {
			var pr *hm.PipelineResult
			pr, err = hm.Pipeline(p.Workload, *p.Pipeline)
			if pr != nil {
				serial[i] = pr.Run
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		rec := hm.NewFlightRecorder(&buf)
		res, err := hm.RunSweep(pts, hm.SweepOptions{Workers: workers, Obs: rec})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
		// The premises of two cells: density/128 places differently
		// from m0/128 at the same budget, and m0/24 places the same
		// objects as m0/32 under a different budget.
		if reflect.DeepEqual(res[3].Pipeline.Report.Entries, res[4].Pipeline.Report.Entries) {
			t.Fatal("m0/128 and density/128 advise the same placement; the grid no longer has a differing-placement cell")
		}
		if !reflect.DeepEqual(res[1].Pipeline.Report.Entries, res[8].Pipeline.Report.Entries) {
			t.Fatal("m0/24 and m0/32 advise different placements; the grid no longer has a budget-only difference")
		}
		for i, p := range pts {
			if !reflect.DeepEqual(res[i].Run, serial[i]) {
				t.Errorf("workers=%d point %d (%s): run diverged from the serial call", workers, i, p.Label)
			}
			if owner[i] < 0 {
				continue
			}
			if res[i].Pipeline.Run != res[i].Run {
				t.Errorf("workers=%d point %d (%s): Pipeline.Run is not Run", workers, i, p.Label)
			}
			for j := range pts {
				if j == i || owner[j] < 0 {
					continue
				}
				if shared, want := res[i].Run == res[j].Run, owner[i] == owner[j]; shared != want {
					t.Errorf("workers=%d points %d (%s) and %d (%s): shared run = %v, want %v",
						workers, i, p.Label, j, pts[j].Label, shared, want)
				}
			}
		}

		// Trace: the cell event's execute disposition, and the
		// production run's manifest in the owner's slice only (the
		// shared profiling runs are untraced, so a pipeline owner has
		// exactly one manifest and a sharer none).
		cell, manifests := -1, make([]int, len(pts))
		for _, ev := range parseTrace(t, &buf) {
			switch ev["ev"] {
			case "cell":
				cell = int(ev["cell"].(float64))
				want := "miss"
				if owner[cell] < 0 {
					want = "none"
				} else if owner[cell] != cell {
					want = "hit"
				}
				if got := ev["exec"]; got != want {
					t.Errorf("workers=%d cell %d (%s): exec = %v, want %q", workers, cell, pts[cell].Label, got, want)
				}
			case "manifest":
				if cell >= 0 {
					manifests[cell]++
				}
			}
		}
		for i, n := range manifests {
			want := 1
			if owner[i] >= 0 && owner[i] != i {
				want = 0
			}
			if n != want {
				t.Errorf("workers=%d cell %d (%s): %d manifest event(s) in its trace slice, want %d", workers, i, pts[i].Label, n, want)
			}
		}
	}
}
