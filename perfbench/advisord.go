package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	hm "repro"
	"repro/internal/advisord"
)

// The advisord-mix request stream. The mix is synthetic: no record of
// real advisory traffic exists, so the counts are chosen for what the
// percentiles read (README.md gives the reasons). Every run offers the
// same counts of the three request kinds, so the latency percentiles
// fall in the same kind on every seed: p50 among hits, p90 among
// misses.
const (
	adMisses       = 80 // new keys: profile + analyze + advise + cache write
	adDiskProfiles = 20 // profiles a previous server put on disk...
	adDiskReports  = 4  // ...with this many reports each: 80 disk hits
	adMemKeys      = 10 // keys warmed in memory during set-up...
	adMemRepeats   = 24 // ...each requested this often: 240 memory hits
	// adSlot is the requests per miss in the schedule: one miss, then
	// adSlot-1 hits.
	adSlot = (adMisses + adDiskProfiles*adDiskReports + adMemKeys*adMemRepeats) / adMisses
	// adLimit is the latency limit of goodput_rps, counted from when a
	// request was due; BENCHMARK.json states the same limit. It is about
	// five times a miss's service time, so only queueing misses it.
	adLimit = 500 * time.Millisecond
	// adChecked is how many responses of each kind a run compares with
	// an in-process advise.
	adChecked = 2
	adPings   = 200
	// adWindows is how many consecutive windows of the schedule the op
	// percentiles are taken over (then the median): 100 requests each,
	// so each window's p90 has 10 samples beyond it.
	adWindows = 4
	// adYardSamples is how many yardstick samples the run takes before
	// the first window and after each.
	adYardSamples = 10
)

// Attribution classes of the ledger, coldest first, and the daemon's
// names for them.
var (
	attributions = []string{"miss", "hit_disk", "hit_mem"}
	attrOf       = map[string]string{hm.AdvisorCacheMiss: "miss", hm.AdvisorCacheHitDisk: "hit_disk", hm.AdvisorCacheHitMem: "hit_mem"}
)

// adApps are the request stream's workloads: five of the Table-I apps
// (README.md says why these five).
var adApps = []string{"minife", "cgpop", "gtc-p", "hpcg", "snap"}

// adStrategies with the four budgets of each app give 36 distinct
// report keys per app; the plan deals 34 of them (16 misses, 16 disk
// hits, 2 memory keys).
var adStrategies = []string{"density", "misses", "misses:0.5", "misses:1", "misses:2", "misses:3", "misses:5", "misses:10", "misses:20"}

// adReq is one advise request and the attribution it must get.
type adReq struct {
	class    string
	app      string
	seed     uint64
	budget   int64
	strategy string
}

func (r adReq) String() string {
	return fmt.Sprintf("%s %s seed=%d budget=%d %s", r.class, r.app, r.seed, r.budget, r.strategy)
}

// adPlan is a run's generated input: the keys to put on disk, the keys
// to warm in memory, and the timed schedule.
type adPlan struct {
	disk, mem, sched []adReq
}

// planAdvisord generates a run's requests. Reports are keyed by
// profile content, and profiles of different seeds can be equal, so no
// two keys of the plan share an (app, budget, strategy): each app's
// combinations are dealt out without replacement. That makes every
// request's attribution a function of the plan alone.
func planAdvisord(seed uint64) adPlan {
	rng := rand.New(rand.NewPCG(seed, 0x61647669736f7264))
	deck := map[string][]adReq{}
	for _, app := range adApps {
		w, err := hm.WorkloadByName(app)
		if err != nil {
			panic(err) // adApps names registered workloads
		}
		for _, b := range hm.BudgetsFor(w) {
			for _, s := range adStrategies {
				deck[app] = append(deck[app], adReq{app: app, budget: b, strategy: s})
			}
		}
		rng.Shuffle(len(deck[app]), func(i, j int) { deck[app][i], deck[app][j] = deck[app][j], deck[app][i] })
	}
	deal := func(app string) adReq {
		r := deck[app][0]
		deck[app] = deck[app][1:]
		return r
	}
	var p adPlan
	var misses, hits []adReq
	for i := 0; i < adMisses; i++ {
		r := deal(adApps[i%len(adApps)])
		r.class, r.seed = "miss", subSeed(seed, "advisord/miss", i)
		misses = append(misses, r)
	}
	for i := 0; i < adDiskProfiles; i++ {
		for j := 0; j < adDiskReports; j++ {
			r := deal(adApps[i%len(adApps)])
			r.class, r.seed = "hit_disk", subSeed(seed, "advisord/disk", i)
			p.disk = append(p.disk, r)
			hits = append(hits, r)
		}
	}
	for i := 0; i < adMemKeys; i++ {
		r := deal(adApps[i%len(adApps)])
		r.class, r.seed = "hit_mem", subSeed(seed, "advisord/mem", i)
		p.mem = append(p.mem, r)
		for j := 0; j < adMemRepeats; j++ {
			hits = append(hits, r)
		}
	}
	// Each miss opens a slot of adSlot requests, the rest of the slot
	// hits in a seeded order: misses arrive evenly spaced, as a steady
	// trickle of new keys, so no two are in flight at once at the
	// offered rate and the tail does not depend on how the shuffle
	// happened to bunch them.
	rng.Shuffle(len(misses), func(i, j int) { misses[i], misses[j] = misses[j], misses[i] })
	rng.Shuffle(len(hits), func(i, j int) { hits[i], hits[j] = hits[j], hits[i] })
	for i, m := range misses {
		p.sched = append(p.sched, m)
		p.sched = append(p.sched, hits[i*(adSlot-1):(i+1)*(adSlot-1)]...)
	}
	return p
}

// adEnv is a set-up daemon: a server over an on-disk artifact cache
// and its clients.
type adEnv struct {
	dir     string
	srv     *hm.AdvisorServer
	clients []*hm.AdvisorClient
}

func (e *adEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	os.RemoveAll(e.dir)
}

// adServe starts a server over the cache in dir with nproc worker
// slots and dials nproc clients to it.
func adServe(e *adEnv, nproc int) error {
	cache, err := hm.OpenArtifactCache(e.dir, nil)
	if err != nil {
		return err
	}
	srv, ln, err := hm.ServeAdvisor("127.0.0.1:0", hm.AdvisorServerConfig{Workers: nproc, Cache: cache})
	if err != nil {
		return err
	}
	e.srv = srv
	for i := 0; i < nproc; i++ {
		c, err := hm.DialAdvisor(ln.Addr().String())
		if err != nil {
			return err
		}
		e.clients = append(e.clients, c)
	}
	return nil
}

// advise sends one request.
func advise(c *hm.AdvisorClient, r adReq, scale float64) (*advisord.AdviseResult, error) {
	return c.AdviseWorkload(r.app, "", hm.AdvisorProfileParams{Seed: r.seed, RefScale: scale}, r.budget, r.strategy)
}

// sendAll sends reqs over the clients as a closed loop, each client
// sending its next request when the last one returns.
func sendAll(clients []*hm.AdvisorClient, reqs []adReq, scale float64) error {
	errs := make([]error, len(reqs))
	parallel(len(reqs), len(clients), func(w, i int) {
		_, errs[i] = advise(clients[w], reqs[i], scale)
	})
	return errors.Join(errs...)
}

// setupAdvisord starts a server over a fresh cache, puts the disk keys
// into it and shuts it down; then starts the server the run measures
// over the same directory and warms the memory keys in it.
func setupAdvisord(o *options, p adPlan) (*adEnv, error) {
	dir, err := os.MkdirTemp(o.workDir, "advisord-")
	if err != nil {
		return nil, err
	}
	prev := &adEnv{dir: dir}
	if err := adServe(prev, o.nproc); err != nil {
		prev.close()
		return nil, err
	}
	err = sendAll(prev.clients, p.disk, o.scale)
	prev.dir = "" // the next server reuses the directory
	prev.close()
	e := &adEnv{dir: dir}
	if err == nil {
		err = adServe(e, o.nproc)
	}
	if err == nil {
		err = sendAll(e.clients, p.mem, o.scale)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return e, nil
}

// adResult is one timed request.
type adResult struct {
	due, sent, done time.Time
	attr            string // the ledger's name of the response's attribution
	report          []byte
	err             error
}

// runAdvisordMix is the advisord-mix workload: an open loop offering
// the seeded schedule at a fixed rate spread over --seconds, each
// request timed from when it was due.
func runAdvisordMix(o *options) (*outcome, error) {
	out := &outcome{}
	plan := planAdvisord(o.seed)
	var env *adEnv
	for r := 0; r < setupReps; r++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupAdvisord(o, plan); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(start))
	}
	defer env.close()
	n := len(plan.sched)
	interval := time.Duration(o.seconds * float64(time.Second) / float64(n))
	out.params = map[string]any{
		"requests": n, "misses": adMisses, "hit_disk": adDiskProfiles * adDiskReports,
		"hit_mem": adMemKeys * adMemRepeats, "offered_rps": float64(n) / o.seconds,
		"latency_limit_ms": adLimit.Milliseconds(), "clients": len(env.clients), "server_workers": o.nproc,
		"apps": adApps, "strategies": adStrategies, "loop": "open, fixed rate", "ref_scale": o.scale,
	}

	var l map[string]float64
	var tr *tracer
	var before *advisord.ServerStats
	if o.trace {
		l = newLedger()
		tr = newTracer()
		pingLedger(l, env.clients[0], tr)
		var err error
		if before, err = env.clients[0].Stats(); err != nil {
			return nil, err
		}
	}

	// The schedule runs as adWindows open loops, one per window, with
	// adYardSamples of the host-speed yardstick before the first and
	// after each; the latencies are scaled by the run's yardstick factor.
	out.host = &hostSpeed{}
	res := make([]adResult, n)
	per := n / adWindows // the plan's 400 requests split evenly
	var wall time.Duration
	for w := 0; ; w++ {
		for range adYardSamples {
			out.host.sample()
		}
		if w == adWindows {
			break
		}
		wall += openLoop(env.clients, plan.sched, res, w*per, (w+1)*per, interval, o.scale, tr)
	}
	f := out.host.factor()
	if out.host.err != nil {
		return nil, out.host.err
	}

	// Checks first, then the end-to-end figures: a request that failed
	// a check counts as missing the latency limit.
	h := sha256.New()
	bad := make([]bool, n)
	for i := range res {
		r, q := &res[i], plan.sched[i]
		fmt.Fprintf(h, "%d %s -> %s\n", i, q, r.attr)
		h.Write(r.report)
		out.ops = append(out.ops, time.Duration(float64(r.done.Sub(r.due))*f))
		out.attempted++
		switch {
		case r.err != nil:
			bad[i] = true
			out.fail(1, "request %d (%s): %v", i, q, r.err)
		case r.attr != q.class:
			bad[i] = true
			out.fail(1, "request %d (%s): served as %s", i, q, r.attr)
		}
	}
	checkLocal(o, plan, res, out, bad)
	within := 0
	for i := range res {
		if !bad[i] && res[i].done.Sub(res[i].due) <= adLimit {
			within++
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.wall, out.repeats, out.windows = wall, 1, adWindows
	out.goodput = float64(within) / wall.Seconds()

	if o.trace {
		after, err := env.clients[0].Stats()
		if err != nil {
			return nil, err
		}
		l["advisord.profiles_computed"] = float64(after.Profiles - before.Profiles)
		l["advisord.advises_computed"] = float64(after.Advises - before.Advises)
		requestLedger(l, res, o.seconds)
		replayMisses(o, plan, res, tr, l, out)
		out.spans = tr.spans
		out.layer = l
	}
	return out, nil
}

// openLoop offers requests lo..hi-1 of the schedule at a fixed interval
// over the clients, each client sending the next queued request when
// its last one returns, and waits for every response. It returns the
// window's wall, from its first due time to its last response.
func openLoop(clients []*hm.AdvisorClient, sched []adReq, res []adResult, lo, hi int, interval time.Duration, refScale float64, tr *tracer) time.Duration {
	queue := make(chan int, hi-lo) // sized to the number of sends: the generator never blocks
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := lo; i < hi; i++ {
			res[i].due = start.Add(time.Duration(i-lo) * interval)
			waitUntil(res[i].due)
			queue <- i
		}
	}()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &res[i]
				sid := tr.begin(span{Op: i, Name: "AdviseWorkload", Kind: sched[i].class})
				r.sent = time.Now()
				ar, err := advise(c, sched[i], refScale)
				r.done = time.Now()
				tr.end(sid, 0, 0)
				if r.err = err; err == nil {
					r.attr, r.report = attrOf[ar.Cache], ar.ReportBytes
				}
			}
		}()
	}
	wg.Wait()
	last := start
	for i := lo; i < hi; i++ {
		if res[i].done.After(last) {
			last = res[i].done
		}
	}
	return last.Sub(start)
}

// waitUntil sleeps until shortly before t, then spins to it: timer
// wake-ups run late by up to milliseconds, which an open loop would
// add to every request's latency.
func waitUntil(t time.Time) {
	const spin = 500 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// checkLocal compares a seeded sample of responses, adChecked of each
// kind, byte for byte with advisord.LocalAdvise, the in-process
// profile + analyze + advise, and marks the requests that differ bad.
func checkLocal(o *options, p adPlan, res []adResult, out *outcome, bad []bool) {
	rng := rand.New(rand.NewPCG(o.seed, 0x6c6f63616c))
	picked := map[string]int{}
	for _, i := range rng.Perm(len(res)) {
		q := p.sched[i]
		if picked[q.class] == adChecked || bad[i] {
			continue
		}
		picked[q.class]++
		want, err := advisord.LocalAdvise(q.app, "", hm.AdvisorProfileParams{Seed: q.seed, RefScale: o.scale}, q.budget, q.strategy)
		if err != nil || !bytes.Equal(want, res[i].report) {
			bad[i] = true
			out.fail(1, "request %d (%s): daemon report differs from LocalAdvise (err %v)", i, q, err)
		}
	}
}

// pingLedger measures the wire floor: alternating untraced and traced
// pings on one client. The untraced median is advisord.ping.p50_us; the
// traced one over it is the tracing overhead on the cheapest op.
func pingLedger(l map[string]float64, c *hm.AdvisorClient, tr *tracer) {
	var off, on []float64
	for i := 0; i < adPings; i++ {
		t := tr
		if i%2 == 0 {
			t = nil
		}
		start := time.Now()
		sid := t.begin(span{Op: -1, Name: "Ping"})
		err := c.Ping()
		t.end(sid, 0, 0)
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if err != nil {
			continue
		}
		if t == nil {
			off = append(off, us)
		} else {
			on = append(on, us)
		}
	}
	l["advisord.ping.p50_us"] = median(off)
	if m := median(off); m > 0 {
		l["bench.trace_overhead_pct"] = 100 * (median(on)/m - 1)
	}
}

// requestLedger fills the per-attribution rows (client round trip, from
// send to response) and the load generator's rows.
func requestLedger(l map[string]float64, res []adResult, secs float64) {
	byAttr := map[string][]float64{}
	var late []float64
	for i := range res {
		r := &res[i]
		late = append(late, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		if r.err == nil {
			byAttr[r.attr] = append(byAttr[r.attr], float64(r.done.Sub(r.sent).Nanoseconds())/1e6)
		}
	}
	for _, a := range attributions {
		l["advisord."+a+".count"] = float64(len(byAttr[a]))
		l["advisord."+a+".p50_ms"] = percentile(byAttr[a], 0.5)
		l["advisord."+a+".p90_ms"] = percentile(byAttr[a], 0.9)
	}
	l["loadgen.offered_rps"] = float64(len(res)) / secs
	l["loadgen.late_p90_ms"] = percentile(late, 0.9)
}

// replayMisses re-runs every miss request in-process through the public
// Profile, Analyze and Advise with spans — the work the daemon did on
// its miss path — checks the report bytes against the daemon's, and
// fills the engine, paramedir, advisor and model-statistics rows.
func replayMisses(o *options, p adPlan, res []adResult, tr *tracer, l map[string]float64, out *outcome) {
	var idx []int
	for i, q := range p.sched {
		if q.class == "miss" {
			idx = append(idx, i)
		}
	}
	runs := make([]*hm.RunResult, len(idx))
	reps := make([][]byte, len(idx))
	parallel(len(idx), o.nproc, func(_, j int) {
		runs[j], reps[j] = replayMiss(idx[j], p.sched[idx[j]], o.scale, tr)
	})
	for j, i := range idx {
		if res[i].err == nil && !bytes.Equal(reps[j], res[i].report) {
			out.fail(1, "request %d (%s): in-process replay report differs from the daemon's", i, p.sched[i])
		}
	}
	var tot runTotals
	for _, r := range runs {
		tot.add(r)
	}
	tot.fill(l)
	spanLedger(l, tr.spans)
}

// replayMiss is one miss request's work in-process, returning the
// profiling run and the report bytes (nil on error).
func replayMiss(op int, q adReq, scale float64, tr *tracer) (*hm.RunResult, []byte) {
	w, err := hm.WorkloadByName(q.app)
	if err != nil {
		return nil, nil
	}
	strat, err := hm.StrategyByName(q.strategy)
	if err != nil {
		return nil, nil
	}
	ps := tr.begin(span{Op: op, Name: "Profile", Kind: kindProfile})
	trace, run, err := hm.Profile(w, hm.ProfileConfig{Machine: hm.MachineFor(w), Seed: q.seed, RefScale: scale})
	tr.end(ps, hm.SimulatedRefs(run), 0)
	if err != nil {
		return nil, nil
	}
	as := tr.begin(span{Op: op, Name: "Analyze"})
	prof, err := hm.Analyze(trace)
	tr.end(as, 0, int64(len(trace.Records)))
	if err != nil {
		return run, nil
	}
	ds := tr.begin(span{Op: op, Name: "Advise"})
	rep, err := hm.Advise(prof, q.budget, strat)
	tr.endAdvise(ds, rep)
	if err != nil {
		return run, nil
	}
	return run, reportBytes(rep)
}
