package setcover

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"crowdsense/internal/auction"
	"crowdsense/internal/stats"
)

// assertSameCover pins the lazy greedy to the reference: identical
// selections, cost, and the full iteration trace (winner order, effective
// contributions, and the remaining-requirement snapshots the reward scheme
// prices against). Evals is a work gauge and may differ.
func assertSameCover(t *testing.T, trial int, got, want Solution) {
	t.Helper()
	if got.Cost != want.Cost {
		t.Fatalf("trial %d: cost %g, reference %g", trial, got.Cost, want.Cost)
	}
	if len(got.Selected) != len(want.Selected) {
		t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
	}
	for i := range got.Selected {
		if got.Selected[i] != want.Selected[i] {
			t.Fatalf("trial %d: selected %v, reference %v", trial, got.Selected, want.Selected)
		}
	}
	if len(got.Iterations) != len(want.Iterations) {
		t.Fatalf("trial %d: %d iterations, reference %d", trial, len(got.Iterations), len(want.Iterations))
	}
	for i := range got.Iterations {
		g, w := got.Iterations[i], want.Iterations[i]
		if g.Winner != w.Winner {
			t.Fatalf("trial %d iter %d: winner %d, reference %d", trial, i, g.Winner, w.Winner)
		}
		if g.Effective != w.Effective {
			t.Fatalf("trial %d iter %d: effective %g, reference %g", trial, i, g.Effective, w.Effective)
		}
		if len(g.Remaining) != len(w.Remaining) {
			t.Fatalf("trial %d iter %d: remaining %v, reference %v", trial, i, g.Remaining, w.Remaining)
		}
		for id, r := range w.Remaining {
			if g.Remaining[id] != r {
				t.Fatalf("trial %d iter %d task %d: remaining %g, reference %g", trial, i, id, g.Remaining[id], r)
			}
		}
	}
}

// TestGreedyMatchesReference is the core differential pin across randomized
// multi-task instances, including sizes above the parallel initial-scoring
// threshold.
func TestGreedyMatchesReference(t *testing.T) {
	rng := stats.NewRand(41)
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(40)
		if trial%10 == 0 {
			n = parallelEvalMinBids + rng.Intn(40)
		}
		a := randomAuction(rng, n, 2+rng.Intn(12), 5, 0.8)
		got, errGot := Greedy(a)
		want, errWant := GreedyReference(a)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("trial %d: err %v vs reference %v", trial, errGot, errWant)
		}
		if errGot != nil {
			continue
		}
		assertSameCover(t, trial, got, want)
	}
}

// TestGreedyPropertyMatchesReference is the property-style sweep over
// arbitrary seeds.
func TestGreedyPropertyMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		a := randomAuction(rng, 4+rng.Intn(25), 2+rng.Intn(8), 4, 0.75)
		got, errGot := Greedy(a)
		want, errWant := GreedyReference(a)
		if (errGot == nil) != (errWant == nil) {
			return false
		}
		if errGot != nil {
			return true
		}
		if got.Cost != want.Cost || len(got.Iterations) != len(want.Iterations) {
			return false
		}
		for i := range got.Iterations {
			if got.Iterations[i].Winner != want.Iterations[i].Winner ||
				got.Iterations[i].Effective != want.Iterations[i].Effective {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGreedyLazySavesEvals asserts the point of CELF: far fewer effective-
// contribution evaluations than the reference's rounds×bids rescan.
func TestGreedyLazySavesEvals(t *testing.T) {
	rng := stats.NewRand(42)
	a := randomAuction(rng, 200, 20, 8, 0.8)
	sol, err := Greedy(a)
	if err != nil {
		t.Fatal(err)
	}
	full := int64(len(a.Bids)) * int64(len(sol.Iterations))
	if sol.Evals >= full {
		t.Errorf("lazy greedy made %d evals, full rescan would make %d", sol.Evals, full)
	}
	if sol.Evals < int64(len(a.Bids)) {
		t.Errorf("evals %d below the initial scoring pass %d", sol.Evals, len(a.Bids))
	}
}

// step is one visited iteration of a replay without a bid.
type step struct {
	winner    int
	effective float64
}

// withDuplicates re-enters some of a's bids under fresh users at the end of
// the bid list, so removing a winner often hands its pick to an exact
// duplicate through the index tie-break.
func withDuplicates(rng *rand.Rand, a *auction.Auction) *auction.Auction {
	bids := append([]auction.Bid(nil), a.Bids...)
	for k := 0; k < len(a.Bids)/3; k++ {
		dup := a.Bids[rng.Intn(len(a.Bids))]
		bids = append(bids, auction.NewBid(auction.UserID(1000+k), dup.Tasks, dup.Cost, dup.PoS))
	}
	out, err := auction.New(a.Tasks, bids)
	if err != nil {
		panic(err)
	}
	return out
}

// TestWithoutMatchesReferenceRerun pins Run.Without to the rerun it
// replaces: for every bid — winners picked first, in between, and last,
// and bids never picked — the visited (winner, effective) sequence equals
// GreedyReference on the auction without that bid, winners mapped back to
// full-auction indices, and infeasibility is reported exactly when the
// rerun fails.
func TestWithoutMatchesReferenceRerun(t *testing.T) {
	rng := stats.NewRand(43)
	pivotal := 0
	for trial := 0; trial < 80; trial++ {
		a := randomAuction(rng, 4+rng.Intn(30), 2+rng.Intn(8), 4, 0.8)
		if trial%2 == 1 {
			a = withDuplicates(rng, a)
		}
		run, err := GreedyRun(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Bids {
			var got []step
			_, errGot := run.Without(i, func(w int, eff float64) { got = append(got, step{w, eff}) })
			rest, err := a.WithoutBid(i)
			if err != nil {
				t.Fatal(err)
			}
			sol, errWant := GreedyReference(rest)
			if (errGot == nil) != (errWant == nil) || (errGot != nil && !errors.Is(errGot, ErrInfeasible)) {
				t.Fatalf("trial %d without %d: err %v, reference %v", trial, i, errGot, errWant)
			}
			if errGot != nil {
				pivotal++
				continue
			}
			if len(got) != len(sol.Iterations) {
				t.Fatalf("trial %d without %d: %d iterations, reference %d", trial, i, len(got), len(sol.Iterations))
			}
			for k, it := range sol.Iterations {
				w := it.Winner
				if w >= i {
					w++
				}
				if got[k] != (step{w, it.Effective}) {
					t.Fatalf("trial %d without %d iter %d: %+v, reference %+v", trial, i, k, got[k], step{w, it.Effective})
				}
			}
		}
	}
	if pivotal == 0 {
		t.Error("no pivotal bid met; the infeasible branch went untested")
	}
}
