package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"crowdsense/internal/engine"
)

// phaseOptions fix one measured phase.
type phaseOptions struct {
	seed    int64
	seconds int
	rounds  int    // timed rounds per campaign; 0 sizes the run from seconds (tests set it)
	dir     string // parent of the scratch state directories
	traced  bool
}

// phaseResult is one phase's outcome, passed from the phase process to the
// command as a JSON line.
type phaseResult struct {
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest"`
	Rounds    int                `json:"rounds"`
	Sessions  []string           `json:"session_errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// harness drives one system lifetime as a closed loop: one driver per
// campaign, and each driver starts a round only after engine.Config.OnRound
// reported the previous one closed.
type harness struct {
	wl     workload
	in     *inputs
	offset int // pool index of this lifetime's first round
	sys    system
	probes *probes
	closed [campaigns]chan engine.RoundResult
	// Driver c owns played[c] (rounds closed) and sent[c] (batches sent);
	// every batch sent is a fresh input, failed sessions are not replayed.
	played, sent [campaigns]int

	mu      sync.Mutex
	dropped int // OnRound results with nowhere to go
}

func newHarness(wl workload, in *inputs, offset int) *harness {
	h := &harness{wl: wl, in: in, offset: offset}
	for c := range h.closed {
		// One slot: a campaign has at most one round in flight, and its
		// driver takes the result before starting the next.
		h.closed[c] = make(chan engine.RoundResult, 1)
	}
	return h
}

func (h *harness) onRound(r engine.RoundResult) {
	for c := range h.closed {
		if campaignID(c) != r.Campaign {
			continue
		}
		select {
		case h.closed[c] <- r:
		default:
			h.mu.Lock()
			h.dropped++
			h.mu.Unlock()
		}
	}
}

// driverStats is what the drivers saw.
type driverStats struct {
	submitted, settled int64
	failedSessions     int64
	sessionErrs        []string
	latencies          []time.Duration
	results            []engine.RoundResult
	problems           []string

	// Layer timings, kept in the traced run only.
	submit, await, queue, settle, session, wd time.Duration
	lagMax                                    float64
}

func (st *driverStats) add(o driverStats) {
	st.submitted += o.submitted
	st.settled += o.settled
	st.failedSessions += o.failedSessions
	st.sessionErrs = append(st.sessionErrs, o.sessionErrs...)
	st.latencies = append(st.latencies, o.latencies...)
	st.results = append(st.results, o.results...)
	st.problems = append(st.problems, o.problems...)
	st.submit += o.submit
	st.await += o.await
	st.queue += o.queue
	st.settle += o.settle
	st.session += o.session
	st.wd += o.wd
	st.lagMax = max(st.lagMax, o.lagMax)
}

// drive plays rounds rounds on every campaign at once. record keeps
// latencies and round results; traced adds the layer timings.
func (h *harness) drive(rounds int, record, traced bool) driverStats {
	var (
		wg    sync.WaitGroup
		stats [campaigns]driverStats
	)
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = h.driveCampaign(c, rounds, record, traced)
		}(c)
	}
	wg.Wait()
	var all driverStats
	for _, st := range stats {
		all.add(st)
	}
	return all
}

// maxRetries bounds the session attempts a driver may spend on rounds that
// a failed session left open, so a broken server cannot spin a run forever.
const maxRetries = 100

func (h *harness) driveCampaign(c, rounds int, record, traced bool) driverStats {
	var st driverStats
	ctx := context.Background()
	retries := 0
	for done := 0; done < rounds; {
		round := h.played[c] + 1
		in := h.in.round(c, h.offset+h.sent[c])
		h.sent[c]++
		r := h.sys.play(ctx, c, round, in)
		st.submitted += int64(len(in.bids))
		if r.err != nil {
			st.failedSessions++
			if len(st.sessionErrs) < 3 {
				st.sessionErrs = append(st.sessionErrs,
					fmt.Sprintf("%s round %d: %v", campaignID(c), round, r.err))
			}
		}
		if !r.consumed {
			if retries++; retries > maxRetries {
				st.problems = append(st.problems, fmt.Sprintf("%s: gave up after %d failed sessions left round %d open",
					campaignID(c), maxRetries, round))
				return st
			}
			continue
		}
		res, ok := h.awaitRound(c, round)
		if !ok {
			st.problems = append(st.problems, fmt.Sprintf("%s: round %d never closed", campaignID(c), round))
			return st
		}
		h.played[c]++
		done++
		if r.err == nil && res.Err == nil {
			st.settled += int64(r.ok)
			if record {
				st.latencies = append(st.latencies, r.latency)
			}
		}
		if !record {
			continue
		}
		st.results = append(st.results, res)
		if traced {
			st.submit += r.submit
			st.await += r.await
			st.settle += r.settle
			if q := r.await - res.ComputeLatency; r.await > 0 && q > 0 {
				st.queue += q
			}
			st.session += r.latency
			st.wd += res.ComputeLatency
			st.lagMax = max(st.lagMax, h.sys.counters().lagEvents)
		}
	}
	return st
}

func (h *harness) awaitRound(c, round int) (engine.RoundResult, bool) {
	timer := time.NewTimer(sessionTimeout)
	defer timer.Stop()
	for {
		select {
		case res := <-h.closed[c]:
			if res.Round == round {
				return res, true
			}
		case <-timer.C:
			return engine.RoundResult{}, false
		}
	}
}

// lifetime is one system's set-up, timed window and checks.
type lifetime struct {
	setup, elapsed, cpu time.Duration
	st                  driverStats

	allocBytes, pauseNs uint64
	gcs                 uint32
	rejected, failed    uint64 // engine.Snapshot deltas
	probe               probeCounts
	sys                 sysCounters
	fin                 finalState
}

// runLifetime sets a system up (warm-up rounds included), times per rounds
// per campaign on it, checks it and tears it down.
func runLifetime(wl workload, in *inputs, opts phaseOptions, rep, per int, dir string, ck *checker) (lifetime, error) {
	var lt lifetime
	h := newHarness(wl, in, rep*(wl.warmup+per))
	if opts.traced {
		h.probes = newProbes()
	}
	start := time.Now()
	sys, err := startSystem(sysConfig{wl: wl, dir: dir, rounds: wl.warmup + per,
		onRound: h.onRound, probes: h.probes})
	if err != nil {
		return lt, fmt.Errorf("set-up: %w", err)
	}
	h.sys = sys
	warm := h.drive(wl.warmup, false, false)
	if len(warm.problems) > 0 {
		_ = sys.close() // the warm-up failure is the one to report
		return lt, fmt.Errorf("warm-up: %v", warm.problems)
	}
	if err := sys.steady(); err != nil {
		_ = sys.close() // the set-up failure is the one to report
		return lt, fmt.Errorf("set-up: %w", err)
	}
	lt.setup = time.Since(start)

	// The timed window: only the drivers and the system run in it.
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	snap0, sys0, pc0 := sys.engine().Snapshot(), sys.counters(), h.probeCounts()
	cpu0 := processCPU()
	start = time.Now()
	lt.st = h.drive(per, true, opts.traced)
	lt.elapsed = time.Since(start)
	lt.cpu = processCPU() - cpu0
	snap1, sys1, pc1 := sys.engine().Snapshot(), sys.counters(), h.probeCounts()
	runtime.ReadMemStats(&mem1)

	lt.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	lt.gcs = mem1.NumGC - mem0.NumGC
	lt.pauseNs = mem1.PauseTotalNs - mem0.PauseTotalNs
	lt.rejected = snap1.BidsRejected - snap0.BidsRejected
	lt.failed = snap1.RoundsFailed - snap0.RoundsFailed
	lt.probe = pc1.sub(pc0)
	lt.sys = sys1.sub(sys0)

	if err := sys.steady(); err != nil {
		lt.st.problems = append(lt.st.problems, err.Error())
	} else if rs, ok := sys.(*replicatedSystem); ok {
		// The audit tail reads after the window, from the lifetime's first
		// event.
		if err := rs.audit(); err != nil {
			lt.st.problems = append(lt.st.problems, err.Error())
		}
		t := rs.tail
		lt.probe.recvNs, lt.probe.recvs = t.recvNs, t.recvs
		lt.probe.events, lt.probe.observeNs = t.events, t.observeNs
	}
	lt.st.problems = append(lt.st.problems, h.checkSystem(per)...)
	lt.fin = h.finalState()
	if err := sys.close(); err != nil {
		lt.st.problems = append(lt.st.problems, "tear-down: "+err.Error())
	}
	if h.dropped > 0 {
		lt.st.problems = append(lt.st.problems, fmt.Sprintf("%d round results dropped", h.dropped))
	}
	ck.check(lt.st.results)
	lt.st.results = nil
	return lt, nil
}

// runPhase is one measured run in its own process. It generates the inputs,
// then runs wl.lifetimes system lifetimes one after another: each sets the
// system up, plays its warm-up rounds, times its share of the run's rounds,
// and has its captured rounds checked (and, when traced, replayed through
// the solver and codec APIs) once its window closed.
func runPhase(wl workload, opts phaseOptions) (*phaseResult, error) {
	timed := opts.rounds
	if timed <= 0 {
		timed = wl.timedRounds(opts.seconds)
	}
	per := (timed + wl.lifetimes - 1) / wl.lifetimes
	in := generate(wl, opts.seed, wl.lifetimes*(wl.warmup+per))

	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(opts.dir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var (
		lts    []lifetime
		st     driverStats
		setups []float64
		ck     = newChecker(wl, opts.traced)
	)
	for rep := 0; rep < wl.lifetimes; rep++ {
		lt, err := runLifetime(wl, in, opts, rep, per, filepath.Join(root, fmt.Sprint(rep)), ck)
		if err != nil {
			return nil, err
		}
		lts = append(lts, lt)
		st.add(lt.st)
		setups = append(setups, lt.setup.Seconds())
	}
	var elapsed, cpu time.Duration
	for _, lt := range lts {
		elapsed += lt.elapsed
		cpu += lt.cpu
	}

	res := &phaseResult{
		Attempted: st.submitted,
		Failed:    st.submitted - st.settled,
		Rounds:    campaigns * per * wl.lifetimes,
		Problems:  st.problems,
		Sessions:  st.sessionErrs,
		Metrics:   map[string]float64{},
	}
	settled := float64(st.settled)
	if settled == 0 {
		res.Problems = append(res.Problems, "no bid settled in the timed window")
		settled = 1
	}
	m := res.Metrics
	m["bids_per_s"] = float64(st.settled) / elapsed.Seconds()
	m["round_p50_ms"] = ms(percentile(st.latencies, 0.50))
	m["round_p99_ms"] = ms(percentile(st.latencies, 0.99))
	m["cpu_us_per_bid"] = us(cpu) / settled
	m["ok_ratio"] = float64(st.settled) / float64(st.submitted)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMiB()

	res.Problems = append(res.Problems, ck.problems...)
	res.Digest = ck.digest()
	res.Correct = len(res.Problems) == 0
	if !opts.traced {
		return res, nil
	}

	var (
		pc                 probeCounts
		sc                 sysCounters
		fin                finalState
		alloc, pause       uint64
		gcs                uint32
		rejected, failedRd uint64
	)
	for _, lt := range lts {
		pc = pc.add(lt.probe)
		sc = sc.add(lt.sys)
		fin.roundsChecked += lt.fin.roundsChecked
		fin.violations += lt.fin.violations
		fin.snapshotBytes = max(fin.snapshotBytes, lt.fin.snapshotBytes)
		alloc += lt.allocBytes
		pause += lt.pauseNs
		gcs += lt.gcs
		rejected += lt.rejected
		failedRd += lt.failed
	}
	rounds := float64(max(ck.rounds, 1))
	submitted := float64(st.submitted)
	// engine
	m["engine.submit_us_per_bid"] = us(st.submit) / submitted
	m["engine.wd_ms"] = ms(st.wd) / rounds
	m["engine.wd_queue_ms"] = ms(st.queue) / rounds
	m["engine.settle_us_per_bid"] = us(st.settle) / submitted
	m["engine.rejected_bids"] = float64(rejected)
	m["engine.failed_rounds"] = float64(failedRd)
	// mechanism / setcover / knapsack, from the single-threaded replay
	mt := ck.mech
	m["mechanism.run_ms"] = ms(mt.run) / rounds
	m["setcover.greedy_ms"] = ms(mt.greedy) / rounds
	m["mechanism.payment_ms"] = ms(mt.run-mt.allocate) / rounds
	m["knapsack.solve_ms"] = ms(mt.knapsack) / rounds
	m["mechanism.critical_ms"] = ms(mt.critical) / rounds
	m["mechanism.greedy_iters"] = float64(mt.stats.GreedyIters) / rounds
	m["mechanism.lazy_reevals"] = float64(mt.stats.LazyReevals) / rounds
	m["mechanism.dp_cells"] = float64(mt.stats.DPCells) / rounds
	m["mechanism.dp_pruned"] = float64(mt.stats.DPPruned) / rounds
	m["mechanism.dp_reuse"] = float64(mt.stats.DPReuse) / rounds
	// agent / wire
	m["agent.session_ms"] = 0
	if wl.kind != inProcess {
		m["agent.session_ms"] = ms(st.session) / rounds
	}
	m["agent.failed_sessions"] = float64(st.failedSessions)
	bids := float64(max(ck.bids, 1))
	m["wire.frame_bytes_per_bid"] = float64(ck.wire.bytes) / bids
	m["wire.encode_us_per_bid"] = us(ck.wire.encode) / bids
	m["wire.decode_us_per_bid"] = us(ck.wire.decode) / bids
	m["wire.replay_decode_failures"] = float64(ck.wire.decodeFailures)
	// store
	m["store.append_us_per_event"] = perCall(pc.appendNs, pc.appends) / 1e3
	m["store.events_per_bid"] = float64(sc.walSeq) / submitted
	m["store.commit_us"] = perCall(pc.commitNs, pc.commits) / 1e3
	m["store.snapshot_mib"] = float64(fin.snapshotBytes) / (1 << 20)
	m["store.stream_recv_ms"] = perCall(pc.recvNs, pc.recvs) / 1e6
	m["store.stream_recv_us_per_event"] = perCall(pc.recvNs, pc.events) / 1e3
	m["store.stream_events_per_recv"] = perCall(pc.events, pc.recvs)
	// reputation
	m["reputation.adjust_ns"] = perCall(pc.adjustNs, pc.adjusts)
	m["reputation.adjust_calls_per_round"] = float64(pc.adjusts) / rounds
	// obs/audit
	m["audit.observe_us_per_event"] = perCall(pc.observeNs, pc.events) / 1e3
	m["audit.rounds_checked"] = float64(fin.roundsChecked)
	m["audit.violations"] = float64(fin.violations)
	// cluster
	m["cluster.router_sessions"] = float64(sc.routed)
	m["cluster.router_rejected"] = float64(sc.rejected)
	m["cluster.replicated_events"] = sc.repEvents
	m["cluster.replicated_bytes_per_bid"] = sc.repBytes / submitted
	m["cluster.replication_lag_events_max"] = st.lagMax
	// Go runtime
	m["runtime.alloc_bytes_per_bid"] = float64(alloc) / settled
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.gc_pause_ms"] = float64(pause) / 1e6
	return res, nil
}

// probeCounts snapshots the traced run's wrapper counters (zero untraced).
type probeCounts struct {
	appendNs, appends, commitNs, commits int64
	adjustNs, adjusts                    int64
	recvNs, recvs, events, observeNs     int64
}

func (h *harness) probeCounts() probeCounts {
	var pc probeCounts
	if p := h.probes; p != nil {
		pc.appendNs, pc.appends = p.store.appendNs.Load(), p.store.appends.Load()
		pc.commitNs, pc.commits = p.store.commitNs.Load(), p.store.commits.Load()
		pc.adjustNs, pc.adjusts = p.adjust.ns.Load(), p.adjust.calls.Load()
	}
	return pc
}

func (a probeCounts) add(b probeCounts) probeCounts {
	return probeCounts{
		appendNs: a.appendNs + b.appendNs, appends: a.appends + b.appends,
		commitNs: a.commitNs + b.commitNs, commits: a.commits + b.commits,
		adjustNs: a.adjustNs + b.adjustNs, adjusts: a.adjusts + b.adjusts,
		recvNs: a.recvNs + b.recvNs, recvs: a.recvs + b.recvs,
		events: a.events + b.events, observeNs: a.observeNs + b.observeNs,
	}
}

func (a probeCounts) sub(b probeCounts) probeCounts {
	return a.add(probeCounts{
		appendNs: -b.appendNs, appends: -b.appends,
		commitNs: -b.commitNs, commits: -b.commits,
		adjustNs: -b.adjustNs, adjusts: -b.adjusts,
		recvNs: -b.recvNs, recvs: -b.recvs,
		events: -b.events, observeNs: -b.observeNs,
	})
}

func (a sysCounters) add(b sysCounters) sysCounters {
	return sysCounters{walSeq: a.walSeq + b.walSeq, routed: a.routed + b.routed,
		rejected: a.rejected + b.rejected, repEvents: a.repEvents + b.repEvents,
		repBytes: a.repBytes + b.repBytes}
}

// sub is the window's delta; the lag gauge is not a counter and is dropped.
func (a sysCounters) sub(b sysCounters) sysCounters {
	return sysCounters{walSeq: a.walSeq - b.walSeq, routed: a.routed - b.routed,
		rejected: a.rejected - b.rejected, repEvents: a.repEvents - b.repEvents,
		repBytes: a.repBytes - b.repBytes}
}

// finalState is read after the window, once the log readers caught up.
type finalState struct {
	roundsChecked, violations uint64
	snapshotBytes             int64
}

func (h *harness) finalState() finalState {
	var fs finalState
	switch s := h.sys.(type) {
	case *durableSystem:
		fs.snapshotBytes = newestSnapshotBytes(s.dir)
	case *replicatedSystem:
		fs.snapshotBytes = newestSnapshotBytes(filepath.Join(s.dir, "leader"))
		st := s.aud.Status()
		fs.roundsChecked, fs.violations = st.RoundsChecked, st.Violations
	}
	return fs
}

// newestSnapshotBytes is the size of the newest state snapshot the WAL in
// dir wrote at segment rotation (0 before the first rotation).
func newestSnapshotBytes(dir string) int64 {
	names, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")) // the pattern is valid
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names) // zero-padded sequence numbers sort by age
	fi, err := os.Stat(names[len(names)-1])
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkSystem applies the deployment-level output checks: every round
// driven completed, and on the replicated cluster the auditor found no
// violation and the follower holds the leader's whole log.
func (h *harness) checkSystem(per int) []string {
	var problems []string
	snap := h.sys.engine().Snapshot()
	if want := uint64(campaigns * (h.wl.warmup + per)); snap.RoundsCompleted != want {
		problems = append(problems, fmt.Sprintf("engine completed %d rounds, drove %d", snap.RoundsCompleted, want))
	}
	rs, ok := h.sys.(*replicatedSystem)
	if !ok {
		return problems
	}
	st := rs.aud.Status()
	if st.Violations > 0 {
		problems = append(problems, fmt.Sprintf("auditor found %d violations: %s", st.Violations, st.LastViolation))
	}
	if st.RoundsChecked == 0 {
		problems = append(problems, "auditor checked no round")
	}
	if applied, last := rs.follower.AppliedSeq(), rs.wal.LastSeq(); applied != last {
		problems = append(problems, fmt.Sprintf("follower applied seq %d, leader last seq %d", applied, last))
	}
	return problems
}

func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1 // nearest rank
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func perCall(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
