package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	hm "repro"
)

// digests.json pins the sim_digest of each workload at its default
// seeds (key "<workload>/<seed>", at --scale 1). A deliberate model
// change regenerates it: run the seeds, copy the printed sim_digest.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigest(workload string, seed uint64) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", false
	}
	d, ok := m[fmt.Sprintf("%s/%d", workload, seed)]
	return d, ok
}

// cell is one sweep cell's outcome, from RunSweep or from the
// benchmark's stage-by-stage replay of it.
type cell struct {
	run  *hm.RunResult
	prof *hm.RunResult // the profiling run a pipeline cell advised from
	rep  *hm.PlacementReport
	wall time.Duration
	// profWall is the host time of the memoized profile a RunSweep
	// pipeline cell used, shared by every cell of that profile.
	profWall time.Duration
	err      error
}

// digestCells is the sim_digest of a sweep: a sha256 over every cell's
// simulated statistics and its report bytes, in cell order.
func digestCells(pts []hm.SweepPoint, cells []cell) string {
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "cell %d %s\n", i, pts[i].Label)
		if c.err != nil {
			fmt.Fprintf(h, "err\n")
			continue
		}
		digestRun(h, c.run)
		if c.rep != nil {
			h.Write(reportBytes(c.rep))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRun hashes the statistics of one simulated run: FOM, cycles,
// LLC and memory-side cache counts, tier high-water marks, migrations.
func digestRun(h hash.Hash, r *hm.RunResult) {
	fmt.Fprintf(h, "fom %x cycles %d refs %d llc %d/%d mc %d/%d hwm %d/%d/%d mig %d/%d/%d\n",
		math.Float64bits(r.FOM), r.Cycles, hm.SimulatedRefs(r), r.LLCAccesses, r.LLCMisses,
		r.MCDRAMCacheHits, r.MCDRAMCacheMisses, r.HBWHWM, r.DDRHWM, r.TotalHWM,
		r.Epochs, r.Migrations, r.MigratedBytes)
	tiers := make([]int, 0, len(r.TierHWMs))
	for t := range r.TierHWMs {
		tiers = append(tiers, int(t))
	}
	sort.Ints(tiers)
	for _, t := range tiers {
		fmt.Fprintf(h, "tier %d %d\n", t, r.TierHWMs[hm.TierID(t)])
	}
}

func reportBytes(rep *hm.PlacementReport) []byte {
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return []byte("unwritable report: " + err.Error())
	}
	return buf.Bytes()
}

// checkCells checks every cell's output and returns which cells failed
// with one message per failure:
//   - the cell ran without error;
//   - a pipeline cell's fast-tier high-water mark stays within its budget;
//   - a pipeline cell's report fits its tiers;
//   - cells of one workload and seed simulate equal reference counts.
func checkCells(pts []hm.SweepPoint, cells []cell) ([]bool, []string) {
	bad := make([]bool, len(cells))
	var msgs []string
	failf := func(i int, format string, args ...any) {
		bad[i] = true
		msgs = append(msgs, fmt.Sprintf("cell %d (%s %s): ", i, pts[i].Workload.Name, pts[i].Label)+fmt.Sprintf(format, args...))
	}
	refsOf := map[string]int64{}
	for i, c := range cells {
		if c.err != nil {
			failf(i, "%v", c.err)
			continue
		}
		if p := pts[i].Pipeline; p != nil {
			if c.run.HBWHWM > p.Budget {
				failf(i, "fast-tier high-water mark %d exceeds budget %d", c.run.HBWHWM, p.Budget)
			}
			if err := fitsTiers(c.rep); err != nil {
				failf(i, "%v", err)
			}
		}
		group := fmt.Sprintf("%s/%d", pts[i].Workload.Name, pointSeed(pts[i]))
		refs := hm.SimulatedRefs(c.run)
		if want, ok := refsOf[group]; !ok {
			refsOf[group] = refs
		} else if refs != want {
			failf(i, "simulated %d refs, other cells of %s simulated %d", refs, group, want)
		}
	}
	return bad, msgs
}

// fitsTiers checks that a report's entries fit the budgets it records:
// the fast-tier budget of a two-tier report, each packed tier's budget
// of an N-tier one (sizes page-aligned, as placement binds pages).
func fitsTiers(rep *hm.PlacementReport) error {
	if len(rep.Tiers) == 0 {
		if used := rep.PromotedBytes(); used > rep.Budget {
			return fmt.Errorf("report promotes %d bytes into a %d-byte budget", used, rep.Budget)
		}
		return nil
	}
	used := map[string]int64{}
	for _, e := range rep.Entries {
		size := e.Size
		if e.PartSize > 0 {
			size = e.PartSize
		}
		used[e.Tier] += (size + pageSize - 1) / pageSize * pageSize
	}
	for _, t := range rep.Tiers {
		if used[t.Name] > t.Capacity {
			return fmt.Errorf("report packs %d bytes into tier %s of %d", used[t.Name], t.Name, t.Capacity)
		}
	}
	return nil
}

// pageSize is the simulated machine's placement granularity.
const pageSize = 4 * hm.KB

// pointSeed is the seed a sweep point's runs derive from.
func pointSeed(p hm.SweepPoint) uint64 {
	switch {
	case p.Pipeline != nil:
		return p.Pipeline.Seed
	case p.Baseline != nil:
		return p.Baseline.Config.Seed
	default:
		return p.Online.Seed
	}
}

// subSeed derives an independent input seed from the run's seed and a
// salt (splitmix64 over both), so each app and request gets its own
// seed while the whole input stays a function of --seed.
func subSeed(seed uint64, salt string, i int) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, b := range []byte(salt) {
		x = mix64(x ^ uint64(b))
	}
	return mix64(x ^ uint64(i))
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
