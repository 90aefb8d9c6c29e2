package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkDecl is the part of the repository's BENCHMARK.json the
// harness must agree with.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// tiny shrinks a workload to about 2k peers and a quarter of its horizon,
// keeping every mechanism it exercises.
func tiny(sp *spec) *spec {
	t := *sp
	t.peers = 2000
	t.horizon = sp.horizon / 4
	return &t
}

var tinyLadder = ladderConfig{holdSmall: 1000, holdLarge: 4000, pickPeers: 2000, snapshotWords: 1 << 12}

// runTiny runs a shrunken workload through the benchmark's own code path
// and returns its standard output.
func runTiny(t *testing.T, sp *spec, traceFile string) string {
	t.Helper()
	var out, errs bytes.Buffer
	opt := options{seed: 3, traceFile: traceFile, ladder: tinyLadder}
	if code := runWorkload(tiny(sp), opt, &out, &errs); code != 0 {
		t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", sp.name, code, out.String(), errs.String())
	}
	if errs.Len() > 0 {
		t.Errorf("%s: unexpected stderr:\n%s", sp.name, errs.String())
	}
	return out.String()
}

// lastResult parses and round-trips the final JSON line.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, last)
	}
	again, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var r2 result
	if err := json.Unmarshal(again, &r2); err != nil || !reflect.DeepEqual(r, r2) {
		t.Fatalf("result does not round-trip: %v\n%s\n%s", err, last, again)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("verification: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// checkMetrics asserts that the result carries exactly the declared
// metrics with their units.
func checkMetrics(t *testing.T, workload string, r result, want []declMetric) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: result has %d metrics, BENCHMARK.json declares %d", workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: result metric %s = %+v, want unit %s", workload, m.Name, got, m.Unit)
		}
	}
}

// tableUnits maps each metric printed in the table to its unit.
func tableUnits(out string) map[string]string {
	units := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 4 && !strings.HasPrefix(f[0], "#") && !strings.HasPrefix(f[0], "{") {
			units[f[1]] = f[3]
		}
	}
	return units
}

func TestWorkloadsMatchDeclaration(t *testing.T) {
	d := readDecl(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, sp := range workloads {
		have = append(have, sp.name)
		if fp, err := goldenFor(sp.name, defaultSeed); err != nil || fp == 0 {
			t.Errorf("%s: golden fingerprint %016x, %v", sp.name, fp, err)
		}
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, have)
	}
}

func TestTinyWorkloads(t *testing.T) {
	d := readDecl(t)
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
			out := runTiny(t, sp, traceFile)
			checkMetrics(t, sp.name, lastResult(t, out), d.PerLayer)
			units := tableUnits(out)
			for _, m := range append(d.EndToEnd, d.PerLayer...) {
				if units[m.Name] != m.Unit {
					t.Errorf("table prints %s with unit %q, want %q", m.Name, units[m.Name], m.Unit)
				}
			}
			checkTrace(t, sp, traceFile)
		})
	}
	sp := workloads[0]
	checkMetrics(t, sp.name, lastResult(t, runTiny(t, sp, "")), d.EndToEnd)
}

// checkTrace asserts that every span links to a parent recorded in the
// same run that encloses it, and that the calls the benchmark wraps were
// recorded.
func checkTrace(t *testing.T, sp *spec, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ run, id int }
	spans := map[key]span{}
	seen := map[string]bool{}
	var order []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if s.Workload != sp.name || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
		spans[key{s.Run, s.ID}] = s
		seen[s.Span] = true
		order = append(order, s)
	}
	for _, s := range order {
		if s.Parent == 0 {
			continue
		}
		p, ok := spans[key{s.Run, s.Parent}]
		if !ok || p.ID >= s.ID || p.StartNS > s.StartNS || p.EndNS < s.EndNS {
			t.Errorf("span %+v has no enclosing parent (parent %+v)", s, p)
		}
	}
	want := []string{"run", "ScaleFree", "NewSim", "Start", "StepWindow", "Finish"}
	if sp.ckptEvery > 0 {
		want = append(want, "Checkpoint", "Close", "restore", "ValidateChain", "RestoreChain")
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("trace has no %s span", name)
		}
	}
}
