// Command perfbench is the repository benchmark. It drives the real engine,
// store, wire, reputation, audit and cluster layers in-process through their
// public APIs, as a closed loop with two campaigns; checks the outputs; and
// prints every metric by name with its unit. README.md in this directory
// explains the workloads, the per-layer map and the noise rules.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs an untraced and then a traced run, each in a fresh
// process, and reports the per-layer metrics of the traced run plus the
// traced-minus-untraced difference of every end-to-end metric. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": "u"}}}
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the platform sees, measured untraced.
var endToEnd = []metricDef{
	{"bids_per_s", "1/s"},
	{"round_p50_ms", "ms"},
	{"round_p99_ms", "ms"},
	{"cpu_us_per_bid", "us"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, grouped by the package they time.
var perLayer = []metricDef{
	{"engine.submit_us_per_bid", "us"},
	{"engine.wd_ms", "ms"},
	{"engine.wd_queue_ms", "ms"},
	{"engine.settle_us_per_bid", "us"},
	{"engine.rejected_bids", "count"},
	{"engine.failed_rounds", "count"},
	{"mechanism.run_ms", "ms"},
	{"setcover.greedy_ms", "ms"},
	{"mechanism.payment_ms", "ms"},
	{"knapsack.solve_ms", "ms"},
	{"mechanism.critical_ms", "ms"},
	{"mechanism.greedy_iters", "count"},
	{"mechanism.lazy_reevals", "count"},
	{"mechanism.dp_cells", "count"},
	{"mechanism.dp_pruned", "count"},
	{"mechanism.dp_reuse", "count"},
	{"agent.session_ms", "ms"},
	{"agent.failed_sessions", "count"},
	{"wire.frame_bytes_per_bid", "bytes"},
	{"wire.encode_us_per_bid", "us"},
	{"wire.decode_us_per_bid", "us"},
	{"wire.replay_decode_failures", "count"},
	{"store.append_us_per_event", "us"},
	{"store.events_per_bid", "count"},
	{"store.commit_us", "us"},
	{"store.snapshot_mib", "MiB"},
	{"store.stream_recv_ms", "ms"},
	{"store.stream_recv_us_per_event", "us"},
	{"store.stream_events_per_recv", "count"},
	{"reputation.adjust_ns", "ns"},
	{"reputation.adjust_calls_per_round", "count"},
	{"audit.observe_us_per_event", "us"},
	{"audit.rounds_checked", "count"},
	{"audit.violations", "count"},
	{"cluster.router_sessions", "count"},
	{"cluster.router_rejected", "count"},
	{"cluster.replicated_events", "count"},
	{"cluster.replicated_bytes_per_bid", "bytes"},
	{"cluster.replication_lag_events_max", "count"},
	{"runtime.alloc_bytes_per_bid", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// overheadPrefix names the traced-minus-untraced difference of each
// end-to-end metric in the --trace 1 report.
const overheadPrefix = "overhead."

// reportedMetrics lists what one invocation prints, in order.
func reportedMetrics(traced bool) []metricDef {
	if !traced {
		return endToEnd
	}
	defs := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		defs = append(defs, metricDef{overheadPrefix + d.name, d.unit})
	}
	return defs
}

// phaseDeadline bounds all phase processes of one invocation, which must
// end within 180 seconds.
const phaseDeadline = 170 * time.Second

// stateDir holds the runs' scratch state, relative to the repository root
// (the working directory run.sh is started from).
const stateDir = ".bench_build/state"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length at the workload's sizing rate (sets the round count)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
	phase := fs.String("phase", "", "run one measured phase in this process: untraced or traced")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	opts := phaseOptions{seed: *seed, seconds: *seconds, dir: stateDir}

	if *phase != "" {
		if *phase != "untraced" && *phase != "traced" {
			fmt.Fprintf(stderr, "perfbench: unknown phase %q\n", *phase)
			return 2
		}
		opts.traced = *phase == "traced"
		res, err := runPhase(wl, opts)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), phaseDeadline)
	defer cancel()
	phases := []string{"untraced"}
	if *trace == 1 {
		phases = append(phases, "traced")
	}
	var results []*phaseResult
	for _, p := range phases {
		res, err := runChild(ctx, args, p, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s phase: %v\n", p, err)
			return 1
		}
		results = append(results, res)
	}
	rep := compose(results, *trace == 1)
	if err := printReport(stdout, wl, opts, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runChild runs one phase in a fresh process of this binary and parses the
// result line it prints.
func runChild(ctx context.Context, args []string, phase string, stderr io.Writer) (*phaseResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, append(append([]string(nil), args...), "--phase", phase)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	// The phase dies with this process, so a killed benchmark leaves no
	// process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return parsePhase(out.Bytes())
}

func parsePhase(out []byte) (*phaseResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res phaseResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("phase result: %w", err)
	}
	return &res, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the command's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	phases []*phaseResult
}

// compose merges the phases: untraced end-to-end metrics, or the traced
// phase's per-layer metrics plus traced-minus-untraced overheads.
func compose(phases []*phaseResult, traced bool) report {
	rep := report{Correct: true, Metrics: map[string]metricValue{}, phases: phases}
	for _, p := range phases {
		rep.Correct = rep.Correct && p.Correct
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
	}
	for _, d := range reportedMetrics(traced) {
		var v float64
		switch {
		case !traced:
			v = phases[0].Metrics[d.name]
		case strings.HasPrefix(d.name, overheadPrefix):
			base := strings.TrimPrefix(d.name, overheadPrefix)
			v = phases[1].Metrics[base] - phases[0].Metrics[base]
		default:
			v = phases[1].Metrics[d.name]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep
}

func printReport(w io.Writer, wl workload, opts phaseOptions, rep report) error {
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "workload: %s seed=%d campaigns=%d bids/round=%d tasks=%d lifetimes=%d warm-up rounds=%d timed rounds=%d\n",
		wl.name, opts.seed, campaigns, wl.bidsPerRound, wl.tasks, wl.lifetimes,
		wl.lifetimes*campaigns*wl.warmup, rep.phases[0].Rounds)
	for i, p := range rep.phases {
		label := "untraced"
		if i == 1 {
			label = "traced"
		}
		fmt.Fprintf(w, "%s: digest=%s attempted=%d failed=%d correct=%t\n", label, p.Digest, p.Attempted, p.Failed, p.Correct)
		for _, msg := range p.Sessions {
			fmt.Fprintf(w, "  failed session: %s\n", msg)
		}
		for _, msg := range p.Problems {
			fmt.Fprintf(w, "  check failed: %s\n", msg)
		}
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
