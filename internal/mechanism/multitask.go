package mechanism

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/setcover"
)

// CriticalBidMode selects how the multi-task critical bid is computed.
type CriticalBidMode int

const (
	// CriticalBidPaper is Algorithm 5 as printed: rerun the allocation
	// without the user and take the minimum over iterations of
	// (c_i/c_k)·Σ_j min{Q̄_j, q_k^j}. The threshold is priced against
	// EFFECTIVE contributions, so it can underestimate the total
	// contribution a user actually needs to win: Theorem 4's proof assumes
	// a truthful loser fails already in the first iteration, which does not
	// hold on every instance, and on such instances a loser can profitably
	// inflate her declaration. See DESIGN.md ("Algorithm 5 gap").
	CriticalBidPaper CriticalBidMode = iota + 1
	// CriticalBidScaled closes that gap for scaled deviations: it binary-
	// searches the minimal factor s such that declaring s·(q_i^j)_j still
	// wins (monotone by Lemma 2) and prices the reward at q̄ = s*·Σ_j q_i^j.
	// Within the family of scaled misreports the mechanism is then exactly
	// strategy-proof: winning utility (e^(−q̄) − e^(−Σq))·α is independent
	// of the declaration and non-negative exactly when truthful bidding
	// wins.
	CriticalBidScaled
)

// MultiTask is the paper's multi-task, single-minded mechanism (§III-C):
// greedy submodular set-cover winner determination (Algorithm 4) and
// critical-bid rewards with execution-contingent payments (Algorithm 5, or
// the exact scaled-threshold variant — see CriticalBidMode).
type MultiTask struct {
	// Alpha is the reward scaling factor; zero uses DefaultAlpha.
	Alpha float64
	// CriticalBid selects the critical-bid computation; zero means
	// CriticalBidPaper.
	CriticalBid CriticalBidMode
	// Parallelism bounds the goroutines used for per-winner critical-bid
	// searches; non-positive uses GOMAXPROCS.
	Parallelism int
	// Trace, when non-nil, is the parent span under which Run emits
	// wd.allocate, wd.critical_bid, and per-rerun setcover.greedy spans. Nil
	// disables tracing at zero cost.
	Trace *span.Span
	// Adjuster, when non-nil, rewrites declared PoS before winner
	// determination (see PoSAdjuster); costs and payments stay on the
	// declared contract.
	Adjuster PoSAdjuster

	// useReference routes every cover through the retained seed
	// implementation (setcover.GreedyReference). Differential tests and
	// benchmarks use it as the oracle; it is not part of the public surface.
	useReference bool
}

var _ Mechanism = (*MultiTask)(nil)

// Name implements Mechanism.
func (m *MultiTask) Name() string { return "multi-task greedy" }

func (m *MultiTask) parallelism() int {
	if m.Parallelism > 0 {
		return m.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// solveCover runs winner determination on the given auction, emitting a
// setcover.greedy span under sp when tracing is on. The resumable run that
// prices Algorithm 5 critical bids is nil on the reference route.
func (m *MultiTask) solveCover(sp *span.Span, a *auction.Auction) (setcover.Solution, *setcover.Run, error) {
	if m.useReference {
		sol, err := setcover.GreedyReference(a)
		return sol, nil, err
	}
	run, err := setcover.GreedyRunTraced(a, sp)
	if err != nil {
		return setcover.Solution{}, nil, err
	}
	return run.Solution, run, nil
}

// Run executes winner determination and reward calculation. Per-winner
// critical-bid searches are independent and fan out across a bounded worker
// pool, mirroring SingleTask.
func (m *MultiTask) Run(a *auction.Auction) (*Outcome, error) {
	alpha, err := requireAlpha(m.Alpha)
	if err != nil {
		return nil, err
	}
	if a, err = adjustAuction(a, m.Adjuster); err != nil {
		return nil, err
	}
	allocSpan := m.Trace.Child(span.NameAllocate,
		span.Int("bids", int64(len(a.Bids))), span.Int("tasks", int64(len(a.Tasks))))
	sol, run, err := m.solveCover(allocSpan, a)
	if err != nil {
		allocSpan.EndWith(span.Str("error", err.Error()))
		if errors.Is(err, setcover.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	allocSpan.EndWith(span.Int("winners", int64(len(sol.Selected))), span.Float("social_cost", sol.Cost))
	out := &Outcome{
		Mechanism:  m.Name(),
		Selected:   sol.Selected,
		SocialCost: sol.Cost,
		Awards:     make([]Award, len(sol.Selected)),
		Alpha:      alpha,
		Stats:      Stats{GreedyIters: len(sol.Iterations)},
	}
	var (
		reevals  atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	reevals.Add(sol.Evals)
	sem := make(chan struct{}, m.parallelism())
	for slot, winner := range sol.Selected {
		wg.Add(1)
		go func(slot, winner int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cb := m.Trace.Child(span.NameCriticalBid, span.Int("winner", int64(winner)))
			var (
				criticalQ float64
				evals     int64
				err       error
			)
			switch m.CriticalBid {
			case CriticalBidScaled:
				criticalQ, evals, err = m.criticalContributionScaled(cb, a, winner)
			case CriticalBidPaper, 0:
				criticalQ, evals, err = m.criticalContributionMulti(cb, a, run, winner)
			default:
				err = fmt.Errorf("mechanism: unknown critical bid mode %d", m.CriticalBid)
			}
			reevals.Add(evals)
			if err != nil {
				cb.EndWith(span.Str("error", err.Error()))
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			cb.EndWith(span.Int("evals", evals), span.Float("critical_q", criticalQ))
			bid := a.Bids[winner]
			out.Awards[slot] = ecAward(winner, bid, criticalQ, bid.TotalContribution(), alpha)
		}(slot, winner)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out.Stats.LazyReevals = reevals.Load()
	out.fillStats()
	return out, nil
}

// criticalContributionScaled binary-searches the minimal scale s ∈ [0, 1]
// such that user i still wins when declaring s·(q_i^j)_j with everyone
// else fixed, and returns q̄ = s*·Σ_j q_i^j plus the solver evaluations the
// reruns performed. Greedy selection is monotone in every contribution
// (Lemma 2), hence monotone in s, so the threshold is well defined. The
// search runs in the PoS domain: scaling contribution by s maps p to
// 1−(1−p)^s.
func (m *MultiTask) criticalContributionScaled(sp *span.Span, a *auction.Auction, i int) (float64, int64, error) {
	total := a.Bids[i].TotalContribution()
	if total <= 0 {
		return 0, 0, nil
	}
	var evals int64
	lo, hi := 0.0, 1.0 // lo loses (zero contribution), hi wins (declared)
	const tol = 1e-9
	for hi-lo > tol {
		mid := (lo + hi) / 2
		wins, e, err := m.winsWithScale(sp, a, i, mid)
		evals += e
		if err != nil {
			return 0, evals, err
		}
		if wins {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi * total, evals, nil
}

// winsWithScale reports whether bid i is selected by the greedy allocation
// when its contributions are scaled by s.
func (m *MultiTask) winsWithScale(sp *span.Span, a *auction.Auction, i int, s float64) (bool, int64, error) {
	orig := a.Bids[i]
	scaled := make(map[auction.TaskID]float64, len(orig.PoS))
	for id, p := range orig.PoS {
		// contribution s·q corresponds to PoS 1−(1−p)^s.
		scaled[id] = auction.PoS(s * auction.Contribution(p))
	}
	mod, err := a.WithBid(i, auction.NewBid(orig.User, orig.Tasks, orig.Cost, scaled))
	if err != nil {
		return false, 0, err
	}
	sol, _, err := m.solveCover(sp, mod)
	if err != nil {
		if errors.Is(err, setcover.ErrInfeasible) {
			return false, sol.Evals, nil
		}
		return false, sol.Evals, err
	}
	return sol.Contains(i), sol.Evals, nil
}

// criticalContributionMulti is Algorithm 5's critical bid for winner i: the
// allocation is re-run without user i, and in each iteration — where user k
// wins against the remaining requirements Q̄ — user i would have needed a
// total effective contribution of at least (c_i/c_k)·Σ_j min{Q̄_j, q_k^j}
// to be picked instead. The critical bid is the minimum of those
// thresholds.
//
// The rerun is run.Without: the iterations before i's pick are taken from
// the allocation's own trace and only the rest is recomputed. The reference
// route (run == nil) re-runs the reference greedy on a copy of the auction
// without i instead, the oracle the resume is pinned to.
//
// If the instance is infeasible without user i, she is pivotal: the greedy
// loop must eventually select her no matter how small her declared
// contribution, so her critical bid is the infimum 0 (any threshold
// observed before the rerun stalls still applies and is used if smaller —
// it cannot be, since 0 is minimal). The paper assumes a competitive market
// where this does not arise; see DESIGN.md.
func (m *MultiTask) criticalContributionMulti(sp *span.Span, a *auction.Auction, run *setcover.Run, i int) (float64, int64, error) {
	ci := a.Bids[i].Cost
	critical := math.Inf(1)
	visit := func(k int, effective float64) {
		ck := a.Bids[k].Cost
		threshold := ci / ck * effective
		if threshold < critical {
			critical = threshold
		}
	}
	var (
		evals int64
		err   error
	)
	if run != nil {
		evals, err = run.WithoutTraced(sp, i, visit)
	} else {
		evals, err = rerunWithoutReference(a, i, visit)
	}
	if err != nil {
		if errors.Is(err, setcover.ErrInfeasible) {
			return 0, evals, nil // pivotal: wins with any positive declaration
		}
		return 0, evals, err
	}
	if math.IsInf(critical, 1) {
		// No iterations means the requirements were already satisfied with
		// no users — impossible for validated auctions with positive
		// requirements.
		return 0, evals, fmt.Errorf("mechanism: empty rerun trace for winner %d", i)
	}
	return critical, evals, nil
}

// rerunWithoutReference is Algorithm 5's rerun as printed: the reference
// greedy on a copy of the auction without bid i, its iterations visited
// with winners mapped back to indices in a.
func rerunWithoutReference(a *auction.Auction, i int, visit func(k int, effective float64)) (int64, error) {
	rest, err := a.WithoutBid(i)
	if err != nil {
		if errors.Is(err, auction.ErrNoBids) {
			return 0, setcover.ErrInfeasible // only bidder: pivotal
		}
		return 0, err
	}
	sol, err := setcover.GreedyReference(rest)
	if err != nil {
		return sol.Evals, err
	}
	for _, it := range sol.Iterations {
		// Bid indices in `rest` at or above i shifted down by one.
		k := it.Winner
		if k >= i {
			k++
		}
		visit(k, it.Effective)
	}
	return sol.Evals, nil
}

// MultiTaskOPT pairs the exact branch-and-bound cover with EC rewards
// priced by the greedy critical bids. It exists purely as a social-cost
// baseline for the evaluation — the exact allocation is NOT monotone-proven
// and its rewards are not certified strategy-proof.
type MultiTaskOPT struct {
	Alpha      float64
	NodeBudget int
}

var _ Mechanism = (*MultiTaskOPT)(nil)

// Name implements Mechanism.
func (m *MultiTaskOPT) Name() string { return "multi-task OPT" }

// Run executes exact (or best-found within the node budget) winner
// determination. Awards carry zero critical bids: the OPT baseline is used
// only for social-cost comparisons.
func (m *MultiTaskOPT) Run(a *auction.Auction) (*Outcome, error) {
	res, err := BnBCover(a, m.NodeBudget)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Mechanism:  m.Name(),
		Selected:   res.Solution.Selected,
		SocialCost: res.Solution.Cost,
	}
	out.fillStats()
	return out, nil
}

// BnBCover exposes the exact cover search with mechanism error mapping.
func BnBCover(a *auction.Auction, nodeBudget int) (setcover.BnBResult, error) {
	res, err := setcover.BnB(a, nodeBudget)
	if err != nil {
		if errors.Is(err, setcover.ErrInfeasible) {
			return setcover.BnBResult{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return setcover.BnBResult{}, err
	}
	return res, nil
}
