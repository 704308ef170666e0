package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload to a few rounds on two lifetimes.
func tiny(wl workload) workload {
	wl.lifetimes = 2
	wl.warmup = 2
	return wl
}

// TestWorkloadsShort runs every workload at tiny size, untraced and traced,
// and requires the output checks to pass and every metric of both reports to
// be printed with its unit.
func TestWorkloadsShort(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			wl := tiny(wl)
			opts := phaseOptions{seed: 7, rounds: 4, dir: t.TempDir()}
			untraced, err := runPhase(wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.traced = true
			traced, err := runPhase(wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*phaseResult{untraced, traced} {
				if !p.Correct {
					t.Errorf("checks failed: %v", p.Problems)
				}
				if p.Attempted == 0 || p.Digest == "" {
					t.Errorf("attempted %d, digest %q", p.Attempted, p.Digest)
				}
			}
			if untraced.Digest != traced.Digest && untraced.Failed == 0 && traced.Failed == 0 {
				t.Errorf("same seed, different outcomes: %s vs %s", untraced.Digest, traced.Digest)
			}
			for _, mode := range []bool{false, true} {
				phases := []*phaseResult{untraced}
				if mode {
					phases = append(phases, traced)
				}
				rep := compose(phases, mode)
				var out bytes.Buffer
				if err := printReport(&out, wl, opts, rep); err != nil {
					t.Fatal(err)
				}
				checkReport(t, out.String(), reportedMetrics(mode))
			}
			if v := untraced.Metrics["bids_per_s"]; v <= 0 {
				t.Errorf("bids_per_s = %v", v)
			}
		})
	}
}

// checkReport requires the report's last line to be the result object with
// exactly the wanted metrics, each with its unit, and every metric to appear
// by name in the human-readable lines too.
func checkReport(t *testing.T, out string, want []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int64                 `json:"attempted"`
		Failed    *int64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
		t.Fatalf("result line lacks a key: %s", lines[len(lines)-1])
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
		if !strings.Contains(out, " "+d.name+" ") {
			t.Errorf("metric %s not printed by name", d.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: the end-to-end list is what --trace 0 prints and the per-layer list
// what --trace 1 prints, names and units alike.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
	for _, c := range []struct {
		listed []metric
		want   []metricDef
	}{{cfg.EndToEnd, reportedMetrics(false)}, {cfg.PerLayer, reportedMetrics(true)}} {
		if len(c.listed) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the command prints %d", len(c.listed), len(c.want))
			continue
		}
		for i, d := range c.want {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, command %s %s", i, c.listed[i], d.name, d.unit)
			}
		}
	}
}

// TestBadInvocations exits non-zero without a result line.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "durable-tcp", "--trace", "2"},
		{"--workload", "durable-tcp", "--seconds", "0"},
		{"--workload", "durable-tcp", "--phase", "sideways"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
