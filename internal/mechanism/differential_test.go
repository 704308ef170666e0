package mechanism

import (
	"errors"
	"math/rand"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/setcover"
	"crowdsense/internal/stats"
)

// assertSameOutcome pins an optimized mechanism run to a reference-solver
// run bit for bit: same winners, same social cost, and — the part the paper
// cares about — identical awards (critical bids and both execution-
// contingent reward levels).
func assertSameOutcome(t *testing.T, trial int, got, want *Outcome) {
	t.Helper()
	if got.SocialCost != want.SocialCost {
		t.Fatalf("trial %d: social cost %g, reference %g", trial, got.SocialCost, want.SocialCost)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
		}
	}
	if len(got.Awards) != len(want.Awards) {
		t.Fatalf("trial %d: %d awards, reference %d", trial, len(got.Awards), len(want.Awards))
	}
	for i := range got.Awards {
		g, w := got.Awards[i], want.Awards[i]
		if g.BidIndex != w.BidIndex || g.User != w.User {
			t.Fatalf("trial %d award %d: winner (%d,%d), reference (%d,%d)",
				trial, i, g.BidIndex, g.User, w.BidIndex, w.User)
		}
		if g.CriticalContribution != w.CriticalContribution {
			t.Fatalf("trial %d award %d: critical q %.17g, reference %.17g",
				trial, i, g.CriticalContribution, w.CriticalContribution)
		}
		if g.RewardOnSuccess != w.RewardOnSuccess || g.RewardOnFailure != w.RewardOnFailure {
			t.Fatalf("trial %d award %d: rewards (%g,%g), reference (%g,%g)",
				trial, i, g.RewardOnSuccess, g.RewardOnFailure, w.RewardOnSuccess, w.RewardOnFailure)
		}
	}
}

// TestSingleTaskMatchesReferenceSolvers runs the full mechanism — FPTAS
// allocation plus per-winner binary-search critical bids — through the
// optimized Solver and through the retained seed implementation, across
// randomized auctions, and requires identical winners and payments.
func TestSingleTaskMatchesReferenceSolvers(t *testing.T) {
	rng := stats.NewRand(51)
	for trial := 0; trial < 40; trial++ {
		a := randomSingleAuction(rng, 5+rng.Intn(25), 0.8)
		opt := &SingleTask{Epsilon: 0.5, Alpha: 10}
		ref := &SingleTask{Epsilon: 0.5, Alpha: 10, useReference: true}
		got, errGot := opt.Run(a)
		want, errWant := ref.Run(a)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: err %v vs reference %v", trial, errGot, errWant)
		}
		if errGot != nil {
			if !errors.Is(errGot, ErrInfeasible) {
				t.Fatalf("trial %d: %v", trial, errGot)
			}
			continue
		}
		assertSameOutcome(t, trial, got, want)
		if got.Stats.DPReuse == 0 {
			t.Errorf("trial %d: DPReuse = 0, want workspace pool hits across critical-bid probes", trial)
		}
	}
}

// TestMultiTaskMatchesReferenceSolvers does the same for the multi-task
// mechanism in both critical-bid modes: the lazy-greedy cover (and its
// iteration trace, which prices Algorithm 5 rewards) must reproduce the
// seed's payments exactly, serial or fanned out.
func TestMultiTaskMatchesReferenceSolvers(t *testing.T) {
	rng := stats.NewRand(52)
	for _, mode := range []CriticalBidMode{CriticalBidPaper, CriticalBidScaled} {
		for trial := 0; trial < 25; trial++ {
			a := randomMultiAuction(rng, 6+rng.Intn(20), 2+rng.Intn(6), 0.8)
			opt := &MultiTask{Alpha: 10, CriticalBid: mode}
			ref := &MultiTask{Alpha: 10, CriticalBid: mode, Parallelism: 1, useReference: true}
			got, errGot := opt.Run(a)
			want, errWant := ref.Run(a)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("mode %d trial %d: err %v vs reference %v", mode, trial, errGot, errWant)
			}
			if errGot != nil {
				if !errors.Is(errGot, ErrInfeasible) {
					t.Fatalf("mode %d trial %d: %v", mode, trial, errGot)
				}
				continue
			}
			assertSameOutcome(t, trial, got, want)
			if got.Stats.LazyReevals == 0 {
				t.Errorf("mode %d trial %d: LazyReevals = 0, want eval accounting", mode, trial)
			}
		}
	}
}

// TestMultiTaskFanOutMatchesSerial pins the bounded per-winner fan-out to
// the serial path: parallelism must change scheduling only, never awards.
func TestMultiTaskFanOutMatchesSerial(t *testing.T) {
	rng := stats.NewRand(53)
	for trial := 0; trial < 10; trial++ {
		a := randomMultiAuction(rng, 20, 6, 0.8)
		serial := &MultiTask{Alpha: 10, CriticalBid: CriticalBidScaled, Parallelism: 1}
		fanned := &MultiTask{Alpha: 10, CriticalBid: CriticalBidScaled, Parallelism: 8}
		got, err := fanned.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, trial, got, want)
	}
}

// assertPaperMatchesReference runs the paper's critical bid through the
// allocation-trace resume and through the reference re-auction and pins
// the two bit for bit. It returns the resume's outcome, or nil when both
// report the instance infeasible.
func assertPaperMatchesReference(t *testing.T, trial int, a *auction.Auction) *Outcome {
	t.Helper()
	opt := &MultiTask{Alpha: 10}
	ref := &MultiTask{Alpha: 10, Parallelism: 1, useReference: true}
	got, errGot := opt.Run(a)
	want, errWant := ref.Run(a)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("trial %d: err %v vs reference %v", trial, errGot, errWant)
	}
	if errGot != nil {
		if !errors.Is(errGot, ErrInfeasible) {
			t.Fatalf("trial %d: %v", trial, errGot)
		}
		return nil
	}
	assertSameOutcome(t, trial, got, want)
	return got
}

// awardFor returns the award of bid index i.
func awardFor(t *testing.T, out *Outcome, i int) Award {
	t.Helper()
	for _, aw := range out.Awards {
		if aw.BidIndex == i {
			return aw
		}
	}
	t.Fatalf("no award for bid %d in %v", i, out.Selected)
	return Award{}
}

// consecutiveAuction assembles bids over tasks 1..t, each at requirement
// 0.8.
func consecutiveAuction(t int, bids []auction.Bid) *auction.Auction {
	tasks := make([]auction.Task, t)
	for j := range tasks {
		tasks[j] = auction.Task{ID: auction.TaskID(j + 1), Requirement: 0.8}
	}
	a, err := auction.New(tasks, bids)
	if err != nil {
		panic(err)
	}
	return a
}

// consecutiveBid covers size consecutive tasks from task start+1, wrapping
// past t (the shape the swarm workloads bid in), each at a PoS drawn from
// pos.
func consecutiveBid(user, start, size, t int, cost float64, pos func() float64) auction.Bid {
	ids := make([]auction.TaskID, size)
	ps := make(map[auction.TaskID]float64, size)
	for k := range ids {
		ids[k] = auction.TaskID((start+k)%t + 1)
		ps[ids[k]] = pos()
	}
	return auction.NewBid(auction.UserID(user), ids, cost, ps)
}

// swarmAuction is an instance built like the swarm benchmarks': n bids over
// t tasks, each covering 1–3 consecutive tasks with declared PoS
// ~ U(0.1, 0.6) and cost ~ N⁺(15, 2.2).
func swarmAuction(rng *rand.Rand, n, t int) *auction.Auction {
	bids := make([]auction.Bid, n)
	for i := range bids {
		size := 1 + rng.Intn(3)
		bids[i] = consecutiveBid(i+1, rng.Intn(t), size, t,
			stats.NormalPositive(rng, 15, 2.2, 1),
			func() float64 { return stats.Uniform(rng, 0.1, 0.6) })
	}
	return consecutiveAuction(t, bids)
}

// tieAuction draws every bid from two costs and two PoS levels (one level
// per bid) over runs of one or two tasks, and re-enters a third of the bids
// as exact duplicates under fresh users. Equal ratios between distinct bids
// — including across shapes, 2q/20 == q/10 exactly — and duplicate bids are
// the norm, so every greedy round leans on the index tie-break.
func tieAuction(rng *rand.Rand, n, t int) *auction.Auction {
	costs := []float64{10, 20}
	levels := []float64{0.3, 0.5}
	bids := make([]auction.Bid, 0, n)
	for len(bids) < n {
		user := len(bids) + 1
		if len(bids) > 0 && rng.Intn(3) == 0 {
			dup := bids[rng.Intn(len(bids))]
			bids = append(bids, auction.NewBid(auction.UserID(user), dup.Tasks, dup.Cost, dup.PoS))
			continue
		}
		p := levels[rng.Intn(len(levels))]
		bids = append(bids, consecutiveBid(user, rng.Intn(t), 1+rng.Intn(2), t,
			costs[rng.Intn(len(costs))], func() float64 { return p }))
	}
	return consecutiveAuction(t, bids)
}

// TestMultiTaskPaperTiesMatchReference pins the resumed critical bids to
// the re-auction on instances saturated with exact ratio ties and
// duplicate bids: removing winner i must hand its pick to the next index in
// the tie, exactly as the full rerun does.
func TestMultiTaskPaperTiesMatchReference(t *testing.T) {
	rng := stats.NewRand(54)
	feasible := 0
	for trial := 0; trial < 60; trial++ {
		a := tieAuction(rng, 12+rng.Intn(40), 2+rng.Intn(6))
		if assertPaperMatchesReference(t, trial, a) != nil {
			feasible++
		}
	}
	if feasible < 30 {
		t.Fatalf("only %d of 60 tie instances feasible; the test exercises too little", feasible)
	}
}

// TestMultiTaskPaperFirstAndLastPicksMatchReference covers the two ends of
// the resume on every instance: the first-picked winner replays the whole
// greedy from the initial requirements (an empty prefix), the last-picked
// one only what follows the final round's requirements.
func TestMultiTaskPaperFirstAndLastPicksMatchReference(t *testing.T) {
	rng := stats.NewRand(55)
	covered := 0
	for trial := 0; trial < 30; trial++ {
		var a *auction.Auction
		if trial%2 == 0 {
			a = tieAuction(rng, 30, 5)
		} else {
			a = randomMultiAuction(rng, 10+rng.Intn(30), 2+rng.Intn(8), 0.8)
		}
		run, err := setcover.GreedyRun(a)
		if err != nil || len(run.Iterations) < 2 {
			continue
		}
		assertPaperMatchesReference(t, trial, a)
		covered++
	}
	if covered < 20 {
		t.Fatalf("only %d of 30 instances had distinct first and last picks", covered)
	}
}

// TestMultiTaskPaperPivotalMatchesReference covers winners without whom the
// instance is infeasible: a specialist who alone bids on the last task, at
// a cost that makes her the first, a middle, or a late pick, and a lone
// bidder. Both routes must price every pivotal winner at 0.
func TestMultiTaskPaperPivotalMatchesReference(t *testing.T) {
	rng := stats.NewRand(56)
	priced := 0
	for trial := 0; trial < 30; trial++ {
		const tasks = 4
		var bids []auction.Bid
		for i := 0; i < 12; i++ {
			// Ordinary bids never reach the last task.
			size := 1 + rng.Intn(2)
			bids = append(bids, consecutiveBid(i+1, rng.Intn(tasks-size), size, tasks,
				stats.NormalPositive(rng, 15, 2.2, 1),
				func() float64 { return stats.Uniform(rng, 0.3, 0.7) }))
		}
		cost := []float64{0.5, 15, 400}[trial%3]
		specialist := rng.Intn(len(bids) + 1)
		bids = append(bids[:specialist], append([]auction.Bid{
			auction.NewBid(100, []auction.TaskID{tasks}, cost, map[auction.TaskID]float64{tasks: 0.9}),
		}, bids[specialist:]...)...)
		out := assertPaperMatchesReference(t, trial, consecutiveAuction(tasks, bids))
		if out == nil {
			continue
		}
		if aw := awardFor(t, out, specialist); aw.CriticalContribution != 0 {
			t.Fatalf("trial %d: pivotal specialist priced at %g, want 0", trial, aw.CriticalContribution)
		}
		priced++
	}
	if priced < 20 {
		t.Fatalf("only %d of 30 pivotal instances feasible", priced)
	}
	lone := consecutiveAuction(3, []auction.Bid{auction.NewBid(1, []auction.TaskID{1, 2, 3}, 10,
		map[auction.TaskID]float64{1: 0.9, 2: 0.9, 3: 0.9})})
	if out := assertPaperMatchesReference(t, 0, lone); out == nil || out.Awards[0].CriticalContribution != 0 {
		t.Fatalf("lone bidder: outcome %+v, want one award priced at 0", out)
	}
}

// TestMultiTaskPaperSwarmShapeMatchesReference pins the resume at the
// scale and shape the swarm benchmark times: 512 bids over 16 tasks.
func TestMultiTaskPaperSwarmShapeMatchesReference(t *testing.T) {
	rng := stats.NewRand(57)
	for trial := 0; trial < 4; trial++ {
		if assertPaperMatchesReference(t, trial, swarmAuction(rng, 512, 16)) == nil {
			t.Fatalf("trial %d: swarm-shaped instance infeasible", trial)
		}
	}
}
