package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// A nil recorder must absorb every call without touching memory — it is
// what the whole stack threads through when tracing is disabled.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.EmitManifest(Manifest{Workload: "w"})
	r.EmitEpoch(EpochEvent{Epoch: 1})
	r.EmitGate(GateEvent{Decision: DecisionAccept})
	r.EmitTierUsage(TierUsageEvent{})
	r.EmitSolver(SolverEvent{})
	r.EmitPack(PackEvent{})
	r.EmitCell(CellEvent{})
	r.FlushTo(nil)
	r.FlushTo(New(&bytes.Buffer{}))
	New(&bytes.Buffer{}).FlushTo(nil)
	if err := r.Err(); err != nil {
		t.Fatalf("nil recorder Err: %v", err)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		r.EmitGate(GateEvent{Decision: DecisionAccept, NetGain: 1})
		r.EmitEpoch(EpochEvent{Epoch: 2})
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates: %.1f allocs/op", allocs)
	}
}

func TestStreamingRecorderEmitsValidJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.EmitManifest(Manifest{Workload: "stream", Strategy: "greedy", Machine: Fingerprint(42), Cores: 4})
	r.EmitEpoch(EpochEvent{Epoch: 0, Refs: 100, TierBytes: map[string]int64{"MCDRAM": 64, "DDR": 128}})
	r.EmitGate(GateEvent{Epoch: 0, Decision: DecisionReject, MoveCost: 10, IdleCost: 5, CostRatio: 2})
	if err := r.Err(); err != nil {
		t.Fatalf("recorder error: %v", err)
	}

	lines := nonEmptyLines(buf.String())
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	wantEv := []string{"manifest", "epoch", "gate"}
	for i, ln := range lines {
		var h Header
		if err := json.Unmarshal([]byte(ln), &h); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		if h.Ev != wantEv[i] {
			t.Fatalf("line %d ev = %q, want %q", i, h.Ev, wantEv[i])
		}
		if h.Seq != int64(i+1) {
			t.Fatalf("line %d seq = %d, want %d", i, h.Seq, i+1)
		}
	}

	// The manifest must round-trip: parse, re-encode, byte-identical.
	var m Manifest
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatalf("manifest parse: %v", err)
	}
	if m.Schema != Schema || m.Workload != "stream" || m.Strategy != "greedy" {
		t.Fatalf("manifest fields lost: %+v", m)
	}
	re, err := json.Marshal(&m)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(re) != lines[0] {
		t.Fatalf("manifest does not round-trip:\n got %s\nwant %s", re, lines[0])
	}
}

// Buffered recorders must replay into the parent in buffer order with
// sequence numbers assigned at flush — the mechanism that makes
// parallel sweep traces deterministic.
func TestBufferFlushAssignsSequenceInFlushOrder(t *testing.T) {
	var buf bytes.Buffer
	parent := New(&buf)

	cellA := NewBuffer()
	cellB := NewBuffer()
	// Interleave writes as a parallel sweep would.
	cellB.EmitGate(GateEvent{Epoch: 7, Decision: DecisionAccept})
	cellA.EmitManifest(Manifest{Workload: "a"})
	cellB.EmitManifest(Manifest{Workload: "b"})
	cellA.EmitEpoch(EpochEvent{Epoch: 3})

	// Flush in cell order: all of A, then all of B.
	cellA.FlushTo(parent)
	cellB.FlushTo(parent)

	lines := nonEmptyLines(buf.String())
	wantEv := []string{"manifest", "epoch", "gate", "manifest"}
	if len(lines) != len(wantEv) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantEv))
	}
	for i, ln := range lines {
		var h Header
		if err := json.Unmarshal([]byte(ln), &h); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if h.Ev != wantEv[i] || h.Seq != int64(i+1) {
			t.Fatalf("line %d = (%q, seq %d), want (%q, seq %d)", i, h.Ev, h.Seq, wantEv[i], i+1)
		}
	}

	// A second flush must not duplicate events.
	cellA.FlushTo(parent)
	if got := len(nonEmptyLines(buf.String())); got != len(wantEv) {
		t.Fatalf("re-flush duplicated events: %d lines", got)
	}
}

func TestRecorderConcurrentWritersProduceValidLines(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.EmitEpoch(EpochEvent{Epoch: g*1000 + i})
			}
		}(g)
	}
	wg.Wait()
	lines := nonEmptyLines(buf.String())
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	seen := map[int64]bool{}
	for i, ln := range lines {
		var h Header
		if err := json.Unmarshal([]byte(ln), &h); err != nil {
			t.Fatalf("line %d invalid under concurrency: %v", i, err)
		}
		if seen[h.Seq] {
			t.Fatalf("duplicate seq %d", h.Seq)
		}
		seen[h.Seq] = true
	}
}

func TestSummarizeDigest(t *testing.T) {
	var buf bytes.Buffer
	r := New(&buf)
	r.EmitManifest(Manifest{Workload: "phaseshift", Strategy: "online/density"})
	r.EmitEpoch(EpochEvent{Epoch: 0, Migrations: 2, MigratedBytes: 2048})
	r.EmitGate(GateEvent{Epoch: 0, Decision: DecisionAccept, Moves: 2, MoveBytes: 2048, CostRatio: 2.0})
	r.EmitGate(GateEvent{Epoch: 1, Decision: DecisionReject, Moves: 1, MoveBytes: 512, CostRatio: 4.0})
	r.EmitSolver(SolverEvent{Strategy: "exact", Nodes: 100, Pruned: 40})
	r.EmitPack(PackEvent{Tier: "MCDRAM"})
	r.EmitCell(CellEvent{Cell: 0, Memo: MemoMiss, Exec: MemoMiss})
	r.EmitCell(CellEvent{Cell: 1, Memo: MemoHit, Exec: MemoHit})
	r.EmitCell(CellEvent{Cell: 2, Memo: MemoNone, Exec: MemoNone})

	s, err := Summarize(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	want := &Summary{
		Events: 9,
		ByEvent: map[string]int64{
			"manifest": 1, "epoch": 1, "gate": 2, "solver": 1, "pack": 1, "cell": 3,
		},
		Runs:               1,
		Workloads:          []string{"phaseshift"},
		Strategies:         []string{"online/density"},
		Epochs:             1,
		EpochMigrations:    2,
		EpochMigratedBytes: 2048,
		GateAccepts:        1,
		GateRejects:        1,
		AcceptedMoves:      2,
		AcceptedBytes:      2048,
		RejectedBytes:      512,
		MeanCostRatio:      3.0,
		SolverRuns:         1,
		SolverNodes:        100,
		SolverPruned:       40,
		PackSteps:          1,
		Cells:              3,
		MemoHits:           1,
		MemoMisses:         1,
		ExecShared:         1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("digest mismatch:\n got %+v\nwant %+v", s, want)
	}

	var out bytes.Buffer
	if err := s.WriteText(&out); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, needle := range []string{"9 events", "1 ACCEPT", "1 REJECT", "100 nodes", "memo hit", "1 shared execute"} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("digest text missing %q:\n%s", needle, out.String())
		}
	}
}

func TestSummarizeRejectsGarbage(t *testing.T) {
	if _, err := Summarize(strings.NewReader("not json\n")); err == nil {
		t.Fatal("Summarize accepted a non-JSON line")
	}
}

func TestFingerprintStable(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	a := Fingerprint(cfg{1, "x"})
	b := Fingerprint(cfg{1, "x"})
	c := Fingerprint(cfg{2, "x"})
	if a != b {
		t.Fatalf("fingerprint not stable: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("distinct configs share fingerprint %s", a)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex chars", a)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		if len(sc.Text()) > 0 {
			out = append(out, sc.Text())
		}
	}
	return out
}
