package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Summary is the digest of a JSONL trace: how many runs it covers,
// what the migration gate decided, what the solvers did, and how the
// sweep engine's memoization fared. It is what -trace-summary renders.
type Summary struct {
	Events  int64
	ByEvent map[string]int64

	// Manifests.
	Runs       int64
	Workloads  []string
	Strategies []string

	// Epoch boundaries.
	Epochs             int64
	EpochMigrations    int64
	EpochMigratedBytes int64

	// Gate decisions.
	GateAccepts   int64
	GateRejects   int64
	AcceptedMoves int64
	AcceptedBytes int64
	RejectedBytes int64
	MeanCostRatio float64 // mean contended/idle over gates with a ratio

	// Solver progress.
	SolverRuns   int64
	SolverNodes  int64
	SolverPruned int64
	// SolverRepacked counts objects whose tier changed between
	// consecutive solves.
	SolverRepacked int64

	// Waterfall packing.
	PackSteps int64

	// Sweep cells. ExecShared counts cells that shared another cell's
	// production run (execute disposition MemoHit).
	Cells      int64
	MemoHits   int64
	MemoMisses int64
	ExecShared int64

	// Robustness: solver degradations and failed sweep cells.
	Degrades     int64
	CellFailures int64
	CellPanics   int64
}

// Summarize reads a JSONL trace and returns its digest. Unknown event
// types are counted but otherwise ignored, so newer traces stay
// summarizable by older readers.
func Summarize(r io.Reader) (*Summary, error) {
	s := &Summary{ByEvent: map[string]int64{}}
	workloads := map[string]bool{}
	strategies := map[string]bool{}
	var ratioSum float64
	var ratioN int64

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var h Header
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		s.Events++
		s.ByEvent[h.Ev]++
		switch h.Ev {
		case "manifest":
			var e Manifest
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			s.Runs++
			if e.Workload != "" {
				workloads[e.Workload] = true
			}
			if e.Strategy != "" {
				strategies[e.Strategy] = true
			}
		case "epoch":
			var e EpochEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			s.Epochs++
			s.EpochMigrations += e.Migrations
			s.EpochMigratedBytes += e.MigratedBytes
		case "gate":
			var e GateEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			if e.Decision == DecisionAccept {
				s.GateAccepts++
				s.AcceptedMoves += int64(e.Moves)
				s.AcceptedBytes += e.MoveBytes
			} else {
				s.GateRejects++
				s.RejectedBytes += e.MoveBytes
			}
			if e.CostRatio > 0 {
				ratioSum += e.CostRatio
				ratioN++
			}
		case "solver":
			var e SolverEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			s.SolverRuns++
			s.SolverNodes += e.Nodes
			s.SolverPruned += e.Pruned
			s.SolverRepacked += int64(e.Repacked)
		case "pack":
			s.PackSteps++
		case "cell":
			var e CellEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			s.Cells++
			switch e.Memo {
			case MemoHit:
				s.MemoHits++
			case MemoMiss:
				s.MemoMisses++
			}
			if e.Exec == MemoHit {
				s.ExecShared++
			}
		case "degrade":
			s.Degrades++
		case "cell_failed":
			var e CellFailedEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			s.CellFailures++
			if e.Panic {
				s.CellPanics++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if ratioN > 0 {
		s.MeanCostRatio = ratioSum / float64(ratioN)
	}
	s.Workloads = sortedKeys(workloads)
	s.Strategies = sortedKeys(strategies)
	return s, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteText renders the digest for humans.
func (s *Summary) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "trace: %d events, %d run manifest(s)\n", s.Events, s.Runs)
	if err != nil {
		return err
	}
	if len(s.Workloads) > 0 {
		fmt.Fprintf(w, "  workloads:  %v\n", s.Workloads)
	}
	if len(s.Strategies) > 0 {
		fmt.Fprintf(w, "  strategies: %v\n", s.Strategies)
	}
	if s.Epochs > 0 {
		fmt.Fprintf(w, "epochs: %d boundaries — %d migrations, %s moved\n",
			s.Epochs, s.EpochMigrations, fmtBytes(s.EpochMigratedBytes))
	}
	if n := s.GateAccepts + s.GateRejects; n > 0 {
		fmt.Fprintf(w, "gate: %d evaluations — %d ACCEPT (%d moves, %s), %d REJECT (%s declined)",
			n, s.GateAccepts, s.AcceptedMoves, fmtBytes(s.AcceptedBytes),
			s.GateRejects, fmtBytes(s.RejectedBytes))
		if s.MeanCostRatio > 0 {
			fmt.Fprintf(w, "; mean contended/idle cost ratio %.2f", s.MeanCostRatio)
		}
		fmt.Fprintln(w)
	}
	if s.SolverRuns > 0 {
		fmt.Fprintf(w, "solver: %d run(s) — %d nodes explored, %d pruned by LP bound\n",
			s.SolverRuns, s.SolverNodes, s.SolverPruned)
		if s.SolverRepacked > 0 {
			fmt.Fprintf(w, "  %d object(s) repacked between consecutive solves\n", s.SolverRepacked)
		}
	}
	if s.PackSteps > 0 {
		fmt.Fprintf(w, "waterfall: %d packing step(s)\n", s.PackSteps)
	}
	if s.Cells > 0 {
		fmt.Fprintf(w, "sweep: %d cell(s) — %d profile memo hit(s), %d miss(es), %d shared execute(s)\n",
			s.Cells, s.MemoHits, s.MemoMisses, s.ExecShared)
	}
	if s.Degrades > 0 {
		fmt.Fprintf(w, "robustness: %d solver degradation(s) to a greedy fallback\n", s.Degrades)
	}
	if s.CellFailures > 0 {
		fmt.Fprintf(w, "robustness: %d failed sweep cell(s), %d from recovered panic(s)\n",
			s.CellFailures, s.CellPanics)
	}
	return nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
