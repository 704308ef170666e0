// Package setcover implements the submodular set-cover machinery behind the
// paper's multi-task, single-minded mechanism (§III-C): the coverage
// function f(I) = Σ_j min{Q_j, Σ_{i∈I, j∈S_i} q_i^j}, the greedy winner
// determination of Algorithm 4 (iteratively pick the user maximizing
// effective-contribution per cost, H(γ)-approximate in O(n²t)), an
// exhaustive exact solver for small instances, and a branch-and-bound exact
// solver used as the OPT baseline.
package setcover

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"crowdsense/internal/auction"
)

// FeasibilityTol absorbs floating-point slack in coverage comparisons.
const FeasibilityTol = 1e-9

// ErrInfeasible is returned when the users jointly cannot satisfy every
// task's contribution requirement.
var ErrInfeasible = errors.New("setcover: requirements unreachable even with all users")

// Iteration records one round of the greedy loop: which user won, the
// remaining requirements Q̄ at the start of the round (the reward scheme of
// Algorithm 5 prices candidates against exactly these), and the winner's
// effective contribution against them.
type Iteration struct {
	Winner    int                        // bid index in the auction
	Remaining map[auction.TaskID]float64 // Q̄ before this selection
	Effective float64                    // Σ_j min{q^j, Q̄_j} of the winner
}

// Solution is a cover: selected bid indices (ascending), their total cost,
// and — for the greedy solver — the per-iteration trace. Evals counts the
// EffectiveContribution evaluations the solver performed (the lazy-greedy's
// saving over the seed's n-per-round rescan): an observability gauge, not
// part of the mathematical result.
type Solution struct {
	Selected   []int
	Cost       float64
	Iterations []Iteration
	Evals      int64
}

// Contains reports whether the solution selects bid index i.
func (s Solution) Contains(i int) bool {
	for _, idx := range s.Selected {
		if idx == i {
			return true
		}
	}
	return false
}

// EffectiveContribution returns Σ_{j∈S_i} min{q_i^j, remaining_j}: how much
// of the still-open requirements the bid can cover.
func EffectiveContribution(bid auction.Bid, remaining map[auction.TaskID]float64) float64 {
	total := 0.0
	for _, j := range bid.Tasks {
		r := remaining[j]
		if r <= 0 {
			continue
		}
		q := bid.Contribution(j)
		if q < r {
			total += q
		} else {
			total += r
		}
	}
	return total
}

// CoverageValue evaluates the paper's submodular coverage function
// f(I) = Σ_j min{Q_j, Σ_{i∈I, j∈S_i} q_i^j} for a selection of bid indices.
func CoverageValue(a *auction.Auction, selected []int) float64 {
	accumulated := make(map[auction.TaskID]float64, len(a.Tasks))
	for _, idx := range selected {
		bid := a.Bids[idx]
		for _, j := range bid.Tasks {
			accumulated[j] += bid.Contribution(j)
		}
	}
	total := 0.0
	for _, task := range a.Tasks {
		q := accumulated[task.ID]
		req := task.RequiredContribution()
		if q < req {
			total += q
		} else {
			total += req
		}
	}
	return total
}

// parallelEvalMinBids is the bid count from which Greedy fans the initial
// candidate scoring out across GOMAXPROCS goroutines; below it the scan is
// cheaper than goroutine handoff.
const parallelEvalMinBids = 128

// lazyCand is one heap entry of the lazy greedy: a bid, its last-computed
// effective contribution and ratio, and the round that computation was made
// in. A stale entry's ratio is an upper bound on its current ratio
// (effective contributions only shrink as requirements close — that is
// submodularity), which is what makes lazy re-evaluation exact.
type lazyCand struct {
	idx   int
	eff   float64
	ratio float64
	round int
}

// lazyHeap is a max-heap over (ratio desc, idx asc). The index tie-break
// reproduces the reference scan's "first strict improvement" winner, so
// selections match the seed bit for bit.
type lazyHeap []lazyCand

func (h lazyHeap) above(a, b lazyCand) bool {
	if a.ratio != b.ratio {
		return a.ratio > b.ratio
	}
	return a.idx < b.idx
}

func (h lazyHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h lazyHeap) siftDown(i int) {
	for {
		top, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h.above(h[l], h[top]) {
			top = l
		}
		if r < len(h) && h.above(h[r], h[top]) {
			top = r
		}
		if top == i {
			return
		}
		h[i], h[top] = h[top], h[i]
		i = top
	}
}

func (h *lazyHeap) popTop() lazyCand {
	old := *h
	top := old[0]
	old[0] = old[len(old)-1]
	*h = old[:len(old)-1]
	if len(*h) > 0 {
		h.siftDown(0)
	}
	return top
}

// term is one precomputed (dense task index, contribution) pair of a bid.
// Projecting the PoS maps onto terms once per Greedy call moves every
// log1p conversion and map lookup out of the eval loop: an effective-
// contribution evaluation becomes a linear pass over a slice.
type term struct {
	task int
	q    float64
}

// greedyState is the dense projection of one auction: requirements indexed
// by task position, bid costs, and every bid's terms in one flat slice (bid
// i owns flat[offs[i]:offs[i+1]], in the bid's sorted task order, so sums
// run in exactly the reference's float order). It is read-only once built;
// each greedy walk carries its own remaining-requirements slice, so
// concurrent walks share one projection.
type greedyState struct {
	taskIDs []auction.TaskID
	req     []float64
	cost    []float64
	flat    []term
	offs    []int
}

// effective is EffectiveContribution over the dense projection against the
// remaining requirements rem: same iteration order, comparisons, and
// additions, hence bit-identical sums.
func (g *greedyState) effective(rem []float64, i int) float64 {
	total := 0.0
	for _, t := range g.flat[g.offs[i]:g.offs[i+1]] {
		r := rem[t.task]
		if r <= 0 {
			continue
		}
		if t.q < r {
			total += t.q
		} else {
			total += r
		}
	}
	return total
}

// snapshot rebuilds a remaining-requirements map for the iteration trace.
func (g *greedyState) snapshot(rem []float64) map[auction.TaskID]float64 {
	out := make(map[auction.TaskID]float64, len(rem))
	for i, r := range rem {
		out[g.taskIDs[i]] = r
	}
	return out
}

func newGreedyState(a *auction.Auction) *greedyState {
	g := &greedyState{
		taskIDs: make([]auction.TaskID, len(a.Tasks)),
		req:     make([]float64, len(a.Tasks)),
		cost:    make([]float64, len(a.Bids)),
		offs:    make([]int, len(a.Bids)+1),
	}
	taskIdx := make(map[auction.TaskID]int, len(a.Tasks))
	for i, task := range a.Tasks {
		g.taskIDs[i] = task.ID
		taskIdx[task.ID] = i
		g.req[i] = task.RequiredContribution()
	}
	for i, bid := range a.Bids {
		g.cost[i] = bid.Cost
		g.offs[i+1] = g.offs[i] + len(bid.Tasks)
	}
	g.flat = make([]term, g.offs[len(a.Bids)])
	for i, bid := range a.Bids {
		dst := g.flat[g.offs[i]:g.offs[i+1]]
		for k, j := range bid.Tasks {
			dst[k] = term{task: taskIdx[j], q: bid.Contribution(j)}
		}
	}
	return g
}

// take subtracts bid idx's contributions from the remaining requirements
// rem (clamped at zero) and returns how many requirements it closed.
func (g *greedyState) take(rem []float64, idx int) int {
	closed := 0
	for _, t := range g.flat[g.offs[idx]:g.offs[idx+1]] {
		r := rem[t.task] - t.q
		if r < 0 {
			r = 0
		}
		if rem[t.task] > FeasibilityTol && r <= FeasibilityTol {
			closed++
		}
		rem[t.task] = r
	}
	return closed
}

// openCount counts the requirements rem still leaves open.
func openCount(rem []float64) int {
	open := 0
	for _, r := range rem {
		if r > FeasibilityTol {
			open++
		}
	}
	return open
}

// Greedy is the paper's Algorithm 4: repeatedly select the user with the
// highest effective-contribution-to-cost ratio until every requirement is
// met. The returned solution carries the iteration trace consumed by the
// multi-task reward scheme (Algorithm 5).
//
// The implementation is CELF-style lazy greedy: candidates sit in a max-heap
// under their last-known ratio, and each round only the heap top is
// re-evaluated until a freshly-scored candidate surfaces. Because effective
// contributions are non-increasing as requirements close (submodularity), a
// stale ratio is an upper bound, so a fresh top dominates every stale entry
// below it and the selection — including index tie-breaks — is identical to
// GreedyReference's full rescan, at far fewer effective-contribution
// evaluations — each of which runs over contributions precomputed once per
// call rather than re-deriving them from the PoS maps. Remaining
// requirements are tracked with an incremental open-task count instead of a
// per-round map scan.
func Greedy(a *auction.Auction) (Solution, error) {
	r, err := GreedyRun(a)
	if err != nil {
		return Solution{}, err
	}
	return r.Solution, nil
}

// Run is a Greedy cover that keeps what it takes to replay the greedy
// without one of its bids (see Without): the dense projection, the dense
// remaining requirements each iteration started from, every bid's initial
// ratio, and the iteration that picked each bid. A Run is read-only, so
// Without may be called from concurrent goroutines.
type Run struct {
	Solution
	g    *greedyState
	rems []float64 // row t, len(g.req) wide: remaining before iteration t
	// ratio0 holds each bid's initial effective-contribution-to-cost ratio
	// (0 for a bid useless from the start), an upper bound on its ratio in
	// every later round.
	ratio0 []float64
	pick   []int // iteration that selected each bid; len(pick) if none
}

// GreedyRun is Greedy returning the resumable Run.
func GreedyRun(a *auction.Auction) (*Run, error) {
	g := newGreedyState(a)
	n := len(a.Bids)
	r := &Run{g: g, pick: make([]int, n)}
	rem := append([]float64(nil), g.req...)
	open := openCount(rem)

	// The initial effective contributions become ratio0 in place.
	r.ratio0 = scoreAllBids(g, rem)
	r.Evals = int64(n)
	h := make(lazyHeap, 0, n)
	for i, eff := range r.ratio0 {
		r.pick[i] = n // past every iteration: each bid is picked at most once
		if eff <= FeasibilityTol {
			// Effective contributions only shrink; a bid useless now is
			// useless in every later round too.
			r.ratio0[i] = 0
			continue
		}
		r.ratio0[i] = eff / g.cost[i]
		h = append(h, lazyCand{idx: i, eff: eff, ratio: r.ratio0[i]})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}

	for round := 0; open > 0; round++ {
		var top lazyCand
		for {
			if len(h) == 0 {
				return nil, ErrInfeasible
			}
			if h[0].round == round {
				top = h.popTop()
				break
			}
			eff := g.effective(rem, h[0].idx)
			r.Evals++
			if eff <= FeasibilityTol {
				h.popTop()
				continue
			}
			h[0].eff = eff
			h[0].ratio = eff / g.cost[h[0].idx]
			h[0].round = round
			h.siftDown(0)
		}
		r.pick[top.idx] = len(r.Iterations)
		r.rems = append(r.rems, rem...)
		r.Iterations = append(r.Iterations, Iteration{
			Winner:    top.idx,
			Remaining: g.snapshot(rem),
			Effective: top.eff,
		})
		r.Selected = append(r.Selected, top.idx)
		r.Cost += g.cost[top.idx]
		open -= g.take(rem, top.idx)
	}
	sort.Ints(r.Selected)
	return r, nil
}

// bound is a candidate of the resumed greedy (Run.Without) and an upper
// bound on its current effective-contribution-to-cost ratio.
type bound struct {
	idx   int
	ratio float64
}

// Without replays the greedy cover of the auction minus bid i, calling
// visit with every iteration's winner (an index into the full auction) and
// effective contribution, in order — the trace Algorithm 5 prices bid i's
// critical bid against. It returns the effective-contribution evaluations
// it made, and ErrInfeasible when the requirements cannot be met without
// bid i; the iterations visited until then stand.
//
// Only the iterations from i's pick on are recomputed. Before that pick the
// replay coincides with this run: bid i was never the argmax there, and
// removing a bid that is not the argmax changes no argmax, because ties
// break on the lower index and removal keeps the other bids' relative
// index order. So the prefix is visited straight from the trace, and the
// suffix resumes from the remaining requirements i's pick started from,
// with i and the prefix winners left out. A bid this run never picked
// changes nothing: its replay is the trace itself.
//
// The suffix is short, so it rescans its candidates in index order each
// round, as GreedyReference does, rather than keeping a heap: on a few
// rounds a heap spends more sifting out candidates that closed requirements
// have made useless than the rescan spends scanning. Each candidate carries
// an upper bound on its ratio (its initial ratio, then its last evaluated
// one); a candidate whose bound does not beat the best fresh ratio found so
// far in the round cannot be the round's first strict improvement, so it is
// skipped unevaluated. Candidates that evaluate useless are dropped.
func (r *Run) Without(i int, visit func(winner int, effective float64)) (int64, error) {
	t := min(r.pick[i], len(r.Iterations))
	for _, it := range r.Iterations[:t] {
		visit(it.Winner, it.Effective)
	}
	if t == len(r.Iterations) {
		return 0, nil
	}
	g := r.g
	w := len(g.req)
	rem := append([]float64(nil), r.rems[t*w:(t+1)*w]...)
	open := openCount(rem)
	cands := make([]bound, 0, len(r.pick)-t-1)
	for k, p := range r.pick {
		if p > t && r.ratio0[k] > 0 { // neither i nor picked before it, and useful
			cands = append(cands, bound{idx: k, ratio: r.ratio0[k]})
		}
	}
	var evals int64
	for open > 0 {
		best, bestRatio, bestEff := -1, 0.0, 0.0
		live := cands[:0]
		for _, c := range cands {
			if c.ratio > bestRatio {
				eff := g.effective(rem, c.idx)
				evals++
				if eff <= FeasibilityTol {
					continue
				}
				c.ratio = eff / g.cost[c.idx]
				if c.ratio > bestRatio {
					best, bestRatio, bestEff = len(live), c.ratio, eff
				}
			}
			live = append(live, c)
		}
		if best < 0 {
			return evals, ErrInfeasible
		}
		cands = live
		k := cands[best].idx
		cands[best].ratio = 0 // selected: a zero bound is never evaluated again
		visit(k, bestEff)
		open -= g.take(rem, k)
	}
	return evals, nil
}

// scoreAllBids computes every bid's effective contribution against rem,
// fanning out across GOMAXPROCS goroutines on large instances. Each worker
// writes disjoint index ranges, so the result is deterministic.
func scoreAllBids(g *greedyState, rem []float64) []float64 {
	n := len(g.cost)
	effs := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if n < parallelEvalMinBids || workers < 2 {
		for i := range effs {
			effs[i] = g.effective(rem, i)
		}
		return effs
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				effs[i] = g.effective(rem, i)
			}
		}(lo, hi)
	}
	wg.Wait()
	return effs
}

// Exhaustive enumerates all subsets for the exact optimum. It refuses
// instances with more than 20 bids.
func Exhaustive(a *auction.Auction) (Solution, error) {
	const maxN = 20
	n := len(a.Bids)
	if n > maxN {
		return Solution{}, fmt.Errorf("setcover: %d bids exceeds exhaustive limit %d", n, maxN)
	}
	if !a.Feasible(FeasibilityTol) {
		return Solution{}, ErrInfeasible
	}
	bestCost := math.Inf(1)
	bestMask := uint32(0)
	for mask := uint32(1); mask < 1<<n; mask++ {
		cost := 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += a.Bids[i].Cost
			}
		}
		if cost >= bestCost {
			continue
		}
		var sel []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, i)
			}
		}
		if a.CoveredBy(sel, FeasibilityTol) {
			bestCost = cost
			bestMask = mask
		}
	}
	if math.IsInf(bestCost, 1) {
		return Solution{}, ErrInfeasible
	}
	var sel []int
	for i := 0; i < n; i++ {
		if bestMask&(1<<i) != 0 {
			sel = append(sel, i)
		}
	}
	return Solution{Selected: sel, Cost: bestCost}, nil
}
