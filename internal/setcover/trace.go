package setcover

import (
	"crowdsense/internal/auction"
	"crowdsense/internal/obs/span"
)

// GreedyRunTraced is GreedyRun wrapped in a setcover.greedy span under
// parent, recording instance size going in and selection/evaluation counts
// coming out. A nil parent degrades to the plain function.
func GreedyRunTraced(a *auction.Auction, parent *span.Span) (*Run, error) {
	sp := parent.Child(span.NameGreedyCover,
		span.Int("bids", int64(len(a.Bids))), span.Int("tasks", int64(len(a.Tasks))))
	r, err := GreedyRun(a)
	if err != nil {
		sp.EndWith(span.Str("error", err.Error()))
		return nil, err
	}
	sp.EndWith(
		span.Int("selected", int64(len(r.Selected))),
		span.Int("iterations", int64(len(r.Iterations))),
		span.Int("evals", r.Evals),
	)
	return r, nil
}

// WithoutTraced is Without wrapped in a setcover.greedy span under parent,
// recording the excluded bid and the iteration the replay resumes at going
// in, and the replay's iteration and evaluation counts coming out. A nil
// parent degrades to the plain method.
func (r *Run) WithoutTraced(parent *span.Span, i int, visit func(winner int, effective float64)) (int64, error) {
	if parent == nil {
		return r.Without(i, visit)
	}
	sp := parent.Child(span.NameGreedyCover, span.Int("bids", int64(len(r.pick))),
		span.Int("without", int64(i)), span.Int("resume_at", int64(min(r.pick[i], len(r.Iterations)))))
	iters := 0
	evals, err := r.Without(i, func(winner int, effective float64) {
		iters++
		visit(winner, effective)
	})
	if err != nil {
		sp.EndWith(span.Str("error", err.Error()), span.Int("evals", evals))
		return evals, err
	}
	sp.EndWith(span.Int("iterations", int64(iters)), span.Int("evals", evals))
	return evals, nil
}
