// Package obs is the flight recorder: a structured event trace plus a
// cheap counters snapshot for every run the simulator executes. The
// stack makes consequential runtime decisions that are invisible after
// the fact — the online placer's hysteresis gate accepts or refuses
// migrations, the exact branch-and-bound solver explores and prunes
// thousands of nodes, the parallel sweep engine memoizes profiles —
// and the recorder turns each of them into one JSONL line.
//
// Contract:
//
//   - Nil-safe: every method no-ops on a nil *Recorder, so call sites
//     thread a recorder unconditionally and tracing costs one nil check
//     when disabled.
//   - Zero-overhead when disabled: the simulation hot path (the
//     Hierarchy.AccessRun/AccessRandomRun walk of every simulated
//     reference) NEVER touches the recorder — events exist only at
//     epoch boundaries, solver calls and sweep-cell lifecycle points,
//     which are orders of magnitude rarer. The always-on counters
//     snapshotted into Result.Metrics are plain int64 increments on
//     structures the hot path already owns. Both halves are pinned by
//     the AllocsPerRun guards in internal/cache.
//   - Deterministic: a trace is a pure function of the run
//     configuration. encoding/json emits struct fields in declaration
//     order and sorts map keys, sequence numbers are assigned at write
//     (or, for buffered sweep cells, at flush in cell order), and the
//     only scheduling-dependent fields are the explicitly-timing ones
//     (wall_ns, worker) that determinism comparisons strip.
package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Schema is the trace schema version stamped into every manifest.
const Schema = 1

// Header is the common prefix of every event: a per-recorder sequence
// number and the event type tag.
type Header struct {
	Seq int64  `json:"seq"`
	Ev  string `json:"ev"`
}

// Manifest is the run-manifest header event (ev "manifest"): who ran,
// on what machine, under which strategy, with a configuration
// fingerprint that ties the trace to the exact inputs. The engine
// emits one per simulated run; the CLIs emit a file-level one first.
type Manifest struct {
	Header
	Schema   int      `json:"schema"`
	Workload string   `json:"workload,omitempty"`
	App      string   `json:"app,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Machine  string   `json:"machine,omitempty"` // Fingerprint of the machine config
	Tiers    []string `json:"tiers,omitempty"`
	Cores    int      `json:"cores,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	RefScale float64  `json:"ref_scale,omitempty"`
	ConfigFP string   `json:"config_fp,omitempty"`
}

// EpochEvent records one epoch boundary of an online run (ev "epoch"):
// the closing epoch's observations plus the migration traffic applied
// at the boundary.
type EpochEvent struct {
	Header
	Epoch          int              `json:"epoch"`
	Iteration      int              `json:"iteration"`
	Refs           int64            `json:"refs"`
	DurationCycles int64            `json:"duration_cycles"`
	TierBytes      map[string]int64 `json:"tier_bytes,omitempty"`
	Migrations     int64            `json:"migrations"`
	MigratedBytes  int64            `json:"migrated_bytes"`
}

// GateEvent records one migration-gate evaluation (ev "gate"): the
// predicted per-epoch net gain against the plan's contended move cost,
// with the idle-bandwidth cost alongside so the contention premium
// (cost_ratio = contended/idle) is visible per decision.
type GateEvent struct {
	Header
	Epoch      int     `json:"epoch"`
	Decision   string  `json:"decision"` // DecisionAccept or DecisionReject
	NetGain    float64 `json:"net_gain"` // predicted cycles gained per epoch
	Horizon    float64 `json:"horizon"`
	Hysteresis float64 `json:"hysteresis"`
	MoveCost   int64   `json:"move_cost"`            // contended pricing, cycles
	IdleCost   int64   `json:"idle_cost"`            // idle-bandwidth pricing, cycles
	CostRatio  float64 `json:"cost_ratio,omitempty"` // contended / idle
	Moves      int     `json:"moves"`
	MoveBytes  int64   `json:"move_bytes"`
}

// Gate decisions.
const (
	DecisionAccept = "ACCEPT"
	DecisionReject = "REJECT"
)

// TierUsageEvent snapshots the online placer's per-tier budgets and
// occupancy at an epoch boundary (ev "tiers").
type TierUsageEvent struct {
	Header
	Epoch   int              `json:"epoch"`
	Budgets map[string]int64 `json:"budgets,omitempty"`
	Used    map[string]int64 `json:"used,omitempty"`
}

// SolverEvent records one solver run (ev "solver"): an exact
// branch-and-bound advise (nodes explored, LP-bound cutoffs, best
// objective) or an online-placer epoch re-solve (greedy; Nodes stays
// zero). Repacked counts objects whose assigned tier changed relative
// to the previous solve.
type SolverEvent struct {
	Header
	Strategy string  `json:"strategy"`
	Objects  int     `json:"objects"`
	Tiers    int     `json:"tiers"`
	Nodes    int64   `json:"nodes"`
	Pruned   int64   `json:"pruned"`
	Best     float64 `json:"best_objective"`
	Overrun  bool    `json:"overrun,omitempty"`
	Epoch    int     `json:"epoch,omitempty"`
	Repacked int     `json:"repacked,omitempty"`
}

// PackEvent records one waterfall packing step (ev "pack"): one tier's
// knapsack over the candidates the faster tiers rejected.
type PackEvent struct {
	Header
	Tier        string `json:"tier"`
	Budget      int64  `json:"budget"`
	Candidates  int    `json:"candidates"`
	Chosen      int    `json:"chosen"`
	ChosenBytes int64  `json:"chosen_bytes"`
}

// CellEvent records one sweep cell's lifecycle (ev "cell"): which grid
// cell ran, whether its profiling artifact came from the memo table,
// whether it ran its production run or shared another cell's, which
// worker executed it and how long it took. worker and wall_ns are the
// trace's only scheduling-dependent fields.
type CellEvent struct {
	Header
	Cell  int    `json:"cell"`
	Label string `json:"label"`
	Kind  string `json:"kind"` // pipeline | baseline | online
	Memo  string `json:"memo"` // MemoHit | MemoMiss | MemoNone
	// Exec is the execute disposition: MemoMiss for the cell that ran
	// the production run of its placement, MemoHit for a cell sharing
	// it, MemoNone for cells without a shared execute stage.
	Exec   string `json:"exec"`
	Worker int    `json:"worker"`
	WallNS int64  `json:"wall_ns"`
}

// Memo dispositions of a sweep cell's shared stages: its profiling
// artifact (CellEvent.Memo) and its production run (CellEvent.Exec).
const (
	MemoHit  = "hit"
	MemoMiss = "miss"
	MemoNone = "none"
)

// DegradeEvent records a graceful solver degradation (ev "degrade"):
// the requested solver gave up (node limit, deadline, or an epoch
// re-solve panic) and a fallback produced the placement instead. It
// is the trace-side twin of the report's Degraded marker, so every
// non-exact answer in a trace explains itself.
type DegradeEvent struct {
	Header
	Strategy   string  `json:"strategy"`
	Reason     string  `json:"reason"`
	Fallback   string  `json:"fallback"`
	Nodes      int64   `json:"nodes,omitempty"`
	RatioBound float64 `json:"ratio_bound,omitempty"`
	Epoch      int     `json:"epoch,omitempty"`
}

// CellFailedEvent records a sweep cell that errored or panicked (ev
// "cell_failed"): the cell index and label, the error text, and
// whether it was a recovered panic. Healthy cells of the same sweep
// complete normally; this event is why a trace of a 47/48 sweep
// explains the missing cell.
type CellFailedEvent struct {
	Header
	Cell  int    `json:"cell"`
	Label string `json:"label"`
	Error string `json:"error"`
	Panic bool   `json:"panic,omitempty"`
}

// stored is one buffered event awaiting flush.
type stored struct {
	h *Header
	v any
}

// Recorder writes events as JSONL. The zero recorder is not usable;
// construct with New (streaming) or NewBuffer (in-memory, flushed into
// a parent with FlushTo — the sweep engine's per-cell determinism
// mechanism). All methods are nil-safe no-ops on a nil receiver and
// safe for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	enc      *json.Encoder
	seq      int64
	err      error
	buffered bool
	events   []stored
}

// New returns a recorder streaming JSONL to w.
func New(w io.Writer) *Recorder {
	return &Recorder{enc: json.NewEncoder(w)}
}

// NewBuffer returns an in-memory recorder. Its events carry no
// sequence numbers until FlushTo re-emits them into a streaming
// recorder, which assigns them in flush order.
func NewBuffer() *Recorder {
	return &Recorder{buffered: true}
}

// Enabled reports whether events will be recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// record stamps and emits one event. h must point into v's embedded
// Header; v must be a pointer so the stamped sequence number is what
// gets encoded.
func (r *Recorder) record(h *Header, v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.buffered {
		r.events = append(r.events, stored{h: h, v: v})
		return
	}
	r.seq++
	h.Seq = r.seq
	if err := r.enc.Encode(v); err != nil && r.err == nil {
		r.err = err
	}
}

// FlushTo re-emits every buffered event into dst in buffer order and
// empties the buffer. It is how the sweep engine serializes per-cell
// traces in cell order regardless of worker interleaving.
func (r *Recorder) FlushTo(dst *Recorder) {
	if r == nil || dst == nil {
		return
	}
	r.mu.Lock()
	events := r.events
	r.events = nil
	r.mu.Unlock()
	for _, s := range events {
		dst.record(s.h, s.v)
	}
}

// The Emit* wrappers keep the disabled path allocation-free: Go's
// escape analysis is flow-insensitive, so taking &e in the same frame
// as the nil check would heap-allocate the event even when the check
// short-circuits. Each wrapper therefore only copies the event into a
// //go:noinline helper, and the helper — which only ever runs when the
// recorder is enabled — is where the address is taken.

// EmitManifest records a run manifest.
func (r *Recorder) EmitManifest(e Manifest) {
	if r == nil {
		return
	}
	r.manifest(e)
}

//go:noinline
func (r *Recorder) manifest(e Manifest) {
	e.Ev = "manifest"
	if e.Schema == 0 {
		e.Schema = Schema
	}
	r.record(&e.Header, &e)
}

// EmitEpoch records an epoch boundary.
func (r *Recorder) EmitEpoch(e EpochEvent) {
	if r == nil {
		return
	}
	r.epoch(e)
}

//go:noinline
func (r *Recorder) epoch(e EpochEvent) {
	e.Ev = "epoch"
	r.record(&e.Header, &e)
}

// EmitGate records a migration-gate decision.
func (r *Recorder) EmitGate(e GateEvent) {
	if r == nil {
		return
	}
	r.gate(e)
}

//go:noinline
func (r *Recorder) gate(e GateEvent) {
	e.Ev = "gate"
	r.record(&e.Header, &e)
}

// EmitTierUsage records a per-tier budget/occupancy snapshot.
func (r *Recorder) EmitTierUsage(e TierUsageEvent) {
	if r == nil {
		return
	}
	r.tierUsage(e)
}

//go:noinline
func (r *Recorder) tierUsage(e TierUsageEvent) {
	e.Ev = "tiers"
	r.record(&e.Header, &e)
}

// EmitSolver records an exact-solver run.
func (r *Recorder) EmitSolver(e SolverEvent) {
	if r == nil {
		return
	}
	r.solver(e)
}

//go:noinline
func (r *Recorder) solver(e SolverEvent) {
	e.Ev = "solver"
	r.record(&e.Header, &e)
}

// EmitPack records a waterfall packing step.
func (r *Recorder) EmitPack(e PackEvent) {
	if r == nil {
		return
	}
	r.pack(e)
}

//go:noinline
func (r *Recorder) pack(e PackEvent) {
	e.Ev = "pack"
	r.record(&e.Header, &e)
}

// EmitCell records a sweep-cell lifecycle event.
func (r *Recorder) EmitCell(e CellEvent) {
	if r == nil {
		return
	}
	r.cell(e)
}

//go:noinline
func (r *Recorder) cell(e CellEvent) {
	e.Ev = "cell"
	r.record(&e.Header, &e)
}

// EmitDegrade records a graceful solver degradation.
func (r *Recorder) EmitDegrade(e DegradeEvent) {
	if r == nil {
		return
	}
	r.degrade(e)
}

//go:noinline
func (r *Recorder) degrade(e DegradeEvent) {
	e.Ev = "degrade"
	r.record(&e.Header, &e)
}

// EmitCellFailed records a failed or panicked sweep cell.
func (r *Recorder) EmitCellFailed(e CellFailedEvent) {
	if r == nil {
		return
	}
	r.cellFailed(e)
}

//go:noinline
func (r *Recorder) cellFailed(e CellFailedEvent) {
	e.Ev = "cell_failed"
	r.record(&e.Header, &e)
}

// Fingerprint lives in fingerprint.go: the canonical deterministic
// config-identity hash (the old %+v-based hash leaked pointer
// addresses and map iteration order, so it was only stable within one
// process — fatal once fingerprints key durable artifacts).
