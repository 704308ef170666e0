// Package crowdsense is a from-scratch Go reproduction of "Mechanism Design
// for Mobile Crowdsensing with Execution Uncertainty" (Zheng, Yang, Wu,
// Chen — ICDCS 2017): strategy-proof reverse auctions that recruit mobile
// users for sensing tasks when users may fail to execute them.
//
// The library lives under internal/ and is organized bottom-up:
//
//   - internal/stats, internal/geo — numerical toolkit and the grid city;
//   - internal/trace — a synthetic Shanghai-like taxi trace generator
//     standing in for the paper's proprietary data set;
//   - internal/mobility — per-user Markov mobility models (MLE + Laplace
//     smoothing) whose next-location probabilities are the users'
//     probabilities of success (PoS);
//   - internal/auction — tasks, bids, and the log-domain contribution
//     transform q = −ln(1−p);
//   - internal/knapsack, internal/setcover — the winner-determination
//     engines: an exact Pareto DP, the FPTAS of Algorithm 2, Min-Greedy,
//     branch-and-bound OPT, and the greedy submodular cover of Algorithm 4;
//   - internal/mechanism — the paper's mechanisms: single-task
//     (FPTAS + binary-search critical bids) and multi-task
//     (greedy + min-over-iterations critical bids), both paired with
//     execution-contingent rewards, plus the ST-VCG/MT-VCG baselines;
//   - internal/execution — Bernoulli execution simulation, reward
//     settlement, achieved-PoS audits;
//   - internal/workload, internal/experiments — the evaluation workloads of
//     Tables II/III and one harness per figure/table of §IV;
//   - internal/wire, internal/engine, internal/agent — the auction as a
//     real client/server protocol over TCP; internal/platform keeps its
//     auditable round journal.
//
// Entry points: cmd/crowdsim (end-to-end pipeline), cmd/benchfig
// (regenerate every figure/table), cmd/platformd and cmd/agentd (the
// distributed auction), and the runnable walkthroughs under examples/.
// bench_test.go in this directory carries one testing.B benchmark per paper
// artifact.
package crowdsense
