package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	hm "repro"
)

// runOnce runs one workload at a short scale and returns its result and
// the printed sim_digest.
func runOnce(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.5", "--scale", "0.05",
		"--trace", trace, "--workdir", t.TempDir(), "--commit", "test"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	digest := ""
	for _, l := range lines {
		if f := strings.Fields(l); len(f) > 1 && f[0] == "sim_digest" {
			digest = f[1]
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 || digest == "" {
		t.Fatalf("%s --trace %s: correct=%v failed=%d attempted=%d digest=%q\n%s",
			workload, trace, res.Correct, res.Failed, res.Attempted, digest, stdout.String())
	}
	return res, digest
}

// TestWorkloadsShortScale runs every workload, untraced and traced,
// twice each: every named metric is present with its unit, and the
// digest and every deterministic per-layer count repeat exactly.
func TestWorkloadsShortScale(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []string{"0", "1"} {
				a, da := runOnce(t, name, trace)
				b, db := runOnce(t, name, trace)
				if da != db {
					t.Errorf("--trace %s: sim_digest %s then %s", trace, da, db)
				}
				for _, d := range metricDefs {
					if d.name == "error_rate" || (d.layer != "") != (trace == "1") {
						continue
					}
					m, ok := a.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("--trace %s: metric %s missing or unit %q, want %q", trace, d.name, m.Unit, d.unit)
					}
					if d.exact && m.Value != b.Metrics[d.name].Value {
						t.Errorf("count %s not repeated: %v then %v", d.name, m.Value, b.Metrics[d.name].Value)
					}
				}
				if len(a.Metrics) != len(b.Metrics) {
					t.Errorf("--trace %s: %d then %d metrics", trace, len(a.Metrics), len(b.Metrics))
				}
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads
// the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	for _, m := range spec.EndToEnd {
		got = append(got, "e2e "+m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		got = append(got, "layer "+m.Name+" "+m.Unit)
	}
	for _, d := range metricDefs {
		switch {
		case d.layer != "":
			want = append(want, "layer "+d.name+" "+d.unit)
		case d.name != "error_rate":
			want = append(want, "e2e "+d.name+" "+d.unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("BENCHMARK.json lists\n%s\nthe program reports\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestDegradedAdvisesCounted holds advisor.degraded to the Advise spans
// whose report carries a Degraded marker.
func TestDegradedAdvisesCounted(t *testing.T) {
	tr := newTracer()
	for _, rep := range []*hm.PlacementReport{{}, {Degraded: &hm.Degradation{}}, nil} {
		tr.endAdvise(tr.begin(span{Name: "Advise"}), rep)
	}
	l := newLedger()
	spanLedger(l, tr.spans)
	if l["advisor.advise.calls"] != 3 || l["advisor.degraded"] != 1 {
		t.Errorf("calls %v degraded %v, want 3 and 1", l["advisor.advise.calls"], l["advisor.degraded"])
	}
}

// TestYardstickFrozen pins the host-speed yardstick: the kernel computes
// its pinned checksum every run, and allocates nothing once set up, so
// its time does not depend on the garbage collector's state.
func TestYardstickFrozen(t *testing.T) {
	s := newYardState()
	for i := 0; i < 2; i++ {
		if got := s.run(); got != yardWant {
			t.Fatalf("run %d: checksum %#x, want %#x", i, got, yardWant)
		}
	}
	if n := testing.AllocsPerRun(2, func() { s.run() }); n != 0 {
		t.Errorf("kernel allocates %v times per run, want 0", n)
	}
	var h hostSpeed
	h.sample()
	if h.err != nil || len(h.samples) != 1 || h.factor() <= 0 {
		t.Errorf("sample: err %v, samples %v, factor %v", h.err, h.samples, h.factor())
	}
}
