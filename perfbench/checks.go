package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
)

// mechTotals sums the replayed rounds' winner-determination times and
// solver counters.
type mechTotals struct {
	run, allocate, greedy, critical, knapsack time.Duration
	stats                                     mechanism.Stats
}

// checker checks captured rounds lifetime by lifetime, so a run never
// holds more than one lifetime's results, and keeps the run's totals.
type checker struct {
	wl       workload
	traced   bool
	hash     hash.Hash
	problems []string
	mech     mechTotals
	wire     wireTimes
	rounds   int
	bids     int
}

func newChecker(wl workload, traced bool) *checker {
	return &checker{wl: wl, traced: traced, hash: sha256.New()}
}

// maxProblems bounds how many failed checks a run reports by name.
const maxProblems = 10

func (ck *checker) fail(format string, args ...any) {
	if len(ck.problems) < maxProblems {
		ck.problems = append(ck.problems, fmt.Sprintf(format, args...))
	}
}

func (ck *checker) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		ck.hash.Write(b[:])
	}
}

// digest identifies the outcomes checked so far, in capture order (by
// lifetime, campaign and round), so same-seed runs can be compared.
func (ck *checker) digest() string { return hex.EncodeToString(ck.hash.Sum(nil))[:16] }

// check checks one lifetime's captured rounds:
//
//   - every settlement pays its award's RewardOnSuccess or RewardOnFailure;
//   - on the in-process workloads (no PoS adjuster), re-running the
//     mechanism reproduces the round's winners and bit-identical awards.
//
// In the traced run it also replays each round single-threaded through the
// mechanism and the binary codec to time those layers.
func (ck *checker) check(results []engine.RoundResult) {
	for _, res := range results {
		ck.hash.Write([]byte(res.Campaign))
		ck.put(uint64(res.Round), uint64(len(res.Bids)))
		ck.rounds++
		ck.bids += len(res.Bids)
		if res.Outcome == nil {
			ck.fail("%s round %d: no outcome: %v", res.Campaign, res.Round, res.Err)
			continue
		}
		for _, aw := range res.Outcome.Awards {
			ck.put(uint64(aw.BidIndex), math.Float64bits(aw.RewardOnSuccess), math.Float64bits(aw.RewardOnFailure))
		}
		ck.checkSettlements(res)

		if ck.wl.kind == inProcess || ck.traced {
			out, mt, err := replayMechanism(ck.wl, res.Bids, ck.traced)
			switch {
			case err != nil:
				ck.fail("%s round %d: replay: %v", res.Campaign, res.Round, err)
			case ck.wl.kind == inProcess:
				if msg := sameOutcome(res.Outcome, out); msg != "" {
					ck.fail("%s round %d: replay differs: %s", res.Campaign, res.Round, msg)
				}
			}
			if out != nil {
				ck.mech.add(mt, out, ck.wl.tasks > 1)
			}
		}
		if ck.traced {
			wt := replayWire(res)
			ck.wire.bytes += wt.bytes
			ck.wire.encode += wt.encode
			ck.wire.decode += wt.decode
			ck.wire.decodeFailures += wt.decodeFailures
		}
	}
}

func (t *mechTotals) add(mt mechTimes, out *mechanism.Outcome, multiTask bool) {
	t.run += mt.run
	t.allocate += mt.allocate
	if multiTask {
		t.greedy += mt.allocate
	}
	t.critical += mt.critical
	t.knapsack += mt.knapsack
	t.stats.GreedyIters += out.Stats.GreedyIters
	t.stats.LazyReevals += out.Stats.LazyReevals
	t.stats.DPCells += out.Stats.DPCells
	t.stats.DPPruned += out.Stats.DPPruned
	t.stats.DPReuse += out.Stats.DPReuse
}

// checkSettlements requires every settlement to pay exactly one of its
// winner's two contracted rewards, and digests the settlements.
func (ck *checker) checkSettlements(res engine.RoundResult) {
	index := make(map[auction.UserID]int, len(res.Bids))
	for i, b := range res.Bids {
		index[b.User] = i
	}
	users := make([]auction.UserID, 0, len(res.Settlements))
	for u := range res.Settlements {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, u := range users {
		s := res.Settlements[u]
		success := uint64(0)
		if s.Success {
			success = 1
		}
		ck.put(uint64(u), success, math.Float64bits(s.Reward))
		aw, won := res.Outcome.AwardFor(index[u])
		if !won {
			ck.fail("%s round %d: user %d settled without an award", res.Campaign, res.Round, u)
			continue
		}
		want := aw.RewardOnFailure
		if s.Success {
			want = aw.RewardOnSuccess
		}
		if s.Reward != want {
			ck.fail("%s round %d: user %d paid %v, award says %v", res.Campaign, res.Round, u, s.Reward, want)
		}
	}
}

// sameOutcome compares a live round's outcome with its replay: identical
// winners and bit-identical awards. It returns "" when they agree.
func sameOutcome(live, replay *mechanism.Outcome) string {
	if len(live.Selected) != len(replay.Selected) {
		return fmt.Sprintf("%d winners, replay %d", len(live.Selected), len(replay.Selected))
	}
	for i := range live.Selected {
		if live.Selected[i] != replay.Selected[i] {
			return fmt.Sprintf("winner %d is bid %d, replay bid %d", i, live.Selected[i], replay.Selected[i])
		}
	}
	for i := range live.Awards {
		a, b := live.Awards[i], replay.Awards[i]
		if a.BidIndex != b.BidIndex || a.User != b.User ||
			!sameBits(a.CriticalContribution, b.CriticalContribution) ||
			!sameBits(a.CriticalPoS, b.CriticalPoS) ||
			!sameBits(a.RewardOnSuccess, b.RewardOnSuccess) ||
			!sameBits(a.RewardOnFailure, b.RewardOnFailure) ||
			!sameBits(a.ExpectedUtility, b.ExpectedUtility) {
			return fmt.Sprintf("award of bid %d differs: %+v vs %+v", a.BidIndex, a, b)
		}
	}
	return ""
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
