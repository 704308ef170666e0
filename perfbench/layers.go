package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// This file holds the instruments. Each one times the benchmark's own calls
// into a layer's public functions or hooks; nothing inside the program is
// changed.

// probes are the traced run's wrappers, handed to the system as its
// engine.Config.Store and mechanism.PoSAdjuster.
type probes struct {
	store  *timedStore
	adjust *timedAdjuster
}

func newProbes() *probes {
	return &probes{store: &timedStore{}, adjust: &timedAdjuster{}}
}

// timedStore wraps the node's event store (the WAL) and times every Append
// and Commit the engine makes.
type timedStore struct {
	inner             store.Store
	appendNs, appends atomic.Int64
	commitNs, commits atomic.Int64
}

func (s *timedStore) Append(ev store.Event) error {
	start := time.Now()
	err := s.inner.Append(ev)
	s.appendNs.Add(int64(time.Since(start)))
	s.appends.Add(1)
	return err
}

func (s *timedStore) Commit() error {
	start := time.Now()
	err := s.inner.Commit()
	s.commitNs.Add(int64(time.Since(start)))
	s.commits.Add(1)
	return err
}

// Close is the owner's job (the system closes the WAL itself).
func (s *timedStore) Close() error { return nil }

// timedAdjuster wraps the reputation store as the winner-determination PoS
// adjuster. The store is set once the node that owns it has started, before
// any round runs.
type timedAdjuster struct {
	rep       atomic.Pointer[reputation.Store]
	ns, calls atomic.Int64
}

func (a *timedAdjuster) AdjustPoS(user auction.UserID, task auction.TaskID, declared float64) float64 {
	start := time.Now()
	q := a.rep.Load().AdjustPoS(user, task, declared)
	a.ns.Add(int64(time.Since(start)))
	a.calls.Add(1)
	return q
}

// auditTail feeds a WAL's durable stream into an auditor, as platformd's
// auditor tail does, but reads only when catchUp is called: the stream is
// opened at set-up, which pins the log from its first event, and drained
// after the timed window. Only the follower's replication stream reads the
// log live (see README.md, "replicated-cluster").
type auditTail struct {
	stream *store.Stream
	aud    *audit.Auditor
	pos    uint64 // last seq folded into the auditor

	recvs, events     int64
	recvNs, observeNs int64
}

func openAuditTail(wal *store.WAL, aud *audit.Auditor) (*auditTail, error) {
	s, err := wal.Stream(0)
	if err != nil {
		return nil, err
	}
	return &auditTail{stream: s, aud: aud}, nil
}

// catchUp folds every event up to seq, which must be durable, into the
// auditor, timing each Recv and each Observe.
func (t *auditTail) catchUp(seq uint64) error {
	for t.pos < seq {
		start := time.Now()
		events, err := t.stream.Recv()
		t.recvNs += int64(time.Since(start))
		if err != nil {
			return fmt.Errorf("audit tail: %w", err)
		}
		t.recvs++
		t.events += int64(len(events))
		start = time.Now()
		for _, ev := range events {
			t.aud.Observe(ev)
		}
		t.observeNs += int64(time.Since(start))
		t.pos = events[len(events)-1].Seq
	}
	return nil
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func familyValue(fams []obs.Family, name string) float64 {
	for _, f := range fams {
		if f.Name == name && len(f.Samples) > 0 {
			return f.Samples[0].Value
		}
	}
	return 0
}

// --- replays after the timed window ----------------------------------------

// spanSums totals the replayed mechanism's span durations by name.
type spanSums struct {
	mu  sync.Mutex
	sum map[string]time.Duration
}

func (s *spanSums) Emit(rec *span.Record) {
	s.mu.Lock()
	s.sum[rec.Name] += rec.Duration()
	s.mu.Unlock()
}

// mechTimes is one replayed round's winner determination, split by layer.
type mechTimes struct {
	run, allocate, critical, knapsack time.Duration
}

// replayMechanism re-runs a captured round through the public mechanism
// API. Traced replays run single-threaded under a span sink, which splits
// the run into allocation, critical-bid payments and knapsack solves.
func replayMechanism(wl workload, bids []auction.Bid, traced bool) (*mechanism.Outcome, mechTimes, error) {
	var times mechTimes
	a, err := auction.New(wl.taskList(), bids)
	if err != nil {
		return nil, times, err
	}
	var (
		sums *spanSums
		root *span.Span
		par  int
	)
	if traced {
		sums = &spanSums{sum: make(map[string]time.Duration)}
		root = span.New(sums).Start("replay")
		par = 1
	}
	var m mechanism.Mechanism = &mechanism.MultiTask{Alpha: alpha, Parallelism: par, Trace: root}
	if a.SingleTask() {
		m = &mechanism.SingleTask{Epsilon: wl.epsilon, Alpha: alpha, Parallelism: par, Trace: root}
	}
	start := time.Now()
	out, err := m.Run(a)
	times.run = time.Since(start)
	if sums != nil {
		times.allocate = sums.sum[span.NameAllocate]
		times.critical = sums.sum[span.NameCriticalBid]
		times.knapsack = sums.sum[span.NameKnapsackSolve]
	}
	return out, times, err
}

// wireTimes is one round's frames replayed through the binary codec.
type wireTimes struct {
	bytes          int
	encode, decode time.Duration
	decodeFailures int
}

// replayWire encodes the round's bid_batch, award_batch, report_batch and
// settle_batch frames with the binary codec into a buffer and decodes them
// back, each frame on its own codec pair.
func replayWire(res engine.RoundResult) wireTimes {
	var wt wireTimes
	for _, env := range roundFrames(res) {
		var buf bytes.Buffer
		enc := wire.NewBinaryCodec(&buf)
		start := time.Now()
		err := enc.Write(env)
		if err == nil {
			err = enc.Flush()
		}
		wt.encode += time.Since(start)
		if err != nil {
			wt.decodeFailures++
			continue
		}
		wt.bytes += buf.Len() - 1 // the connection's version byte is not per frame
		dec, err := wire.NewServerCodec(&buf)
		if err != nil {
			wt.decodeFailures++
			continue
		}
		start = time.Now()
		_, err = dec.Read()
		wt.decode += time.Since(start)
		if err != nil {
			wt.decodeFailures++
		}
	}
	return wt
}

// roundFrames rebuilds the batch envelopes a round's aggregator session
// exchanges. Reports carry each winner's outcome on its first task.
func roundFrames(res engine.RoundResult) []*wire.Envelope {
	camp := res.Campaign
	bids := make([]wire.Bid, len(res.Bids))
	awards := make([]wire.UserAward, len(res.Bids))
	var reports []wire.Report
	var settles []wire.UserSettle
	for i, b := range res.Bids {
		tasks := make([]int, len(b.Tasks))
		pos := make(map[int]float64, len(b.Tasks))
		for j, id := range b.Tasks {
			tasks[j] = int(id)
			pos[int(id)] = b.PoS[id]
		}
		bids[i] = wire.Bid{User: int(b.User), Tasks: tasks, Cost: b.Cost, PoS: pos}
		awards[i] = wire.UserAward{User: int(b.User)}
		if res.Outcome == nil {
			continue
		}
		if aw, won := res.Outcome.AwardFor(i); won {
			awards[i].Award = wire.Award{Selected: true, CriticalPoS: aw.CriticalPoS,
				RewardOnSuccess: aw.RewardOnSuccess, RewardOnFailure: aw.RewardOnFailure}
			if s, ok := res.Settlements[b.User]; ok {
				reports = append(reports, wire.Report{User: int(b.User),
					Succeeded: map[int]bool{tasks[0]: s.Success}})
				settles = append(settles, wire.UserSettle{User: int(b.User), Settle: s})
			}
		}
	}
	frames := []*wire.Envelope{
		{Type: wire.TypeBidBatch, Campaign: camp, BidBatch: &wire.BidBatch{Bids: bids}},
		{Type: wire.TypeAwardBatch, Campaign: camp, AwardBatch: &wire.AwardBatch{Awards: awards}},
	}
	if len(reports) > 0 {
		frames = append(frames,
			&wire.Envelope{Type: wire.TypeReportBatch, Campaign: camp, ReportBatch: &wire.ReportBatch{Reports: reports}},
			&wire.Envelope{Type: wire.TypeSettleBatch, Campaign: camp, SettleBatch: &wire.SettleBatch{Settles: settles}})
	}
	return frames
}
