package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/stats"
)

// campaigns is the closed loop's width: one driver goroutine per campaign,
// and over TCP one connection per driver at a time, so the offered load
// never exceeds a 2-core host.
const campaigns = 2

// Shared bid distribution (the paper's Table II defaults).
const (
	requirement = 0.8
	alpha       = 10.0
	costMean    = 15.0
	costStd     = 2.2
)

// poolBids bounds how many distinct bids one campaign's input pool holds:
// a run cycles through ceil(poolBids/bidsPerRound) distinct rounds, so the
// inputs stay a few MiB however long the run is.
const poolBids = 32768

type kind int

const (
	inProcess  kind = iota // engine.SubmitBids, no wire, no store
	durableTCP             // one WAL-backed node over loopback TCP
	replicated             // router → leader → follower, WAL tailed by an auditor
)

// workload is one benchmark input shape. Every field is fixed here: the
// seed only picks the concrete bids.
type workload struct {
	name         string
	kind         kind
	tasks        int     // tasks per campaign
	bidsPerRound int     // bids in one round's batch (one session over TCP)
	posLo, posHi float64 // declared PoS ~ U(posLo, posHi)
	epsilon      float64 // single-task FPTAS parameter (0 = default)

	// roundsPerSecond sizes a run: --seconds s times rate·s rounds (at least
	// minTimedRounds), split over the campaigns. The rate is a constant, so
	// a faster program does the same work in less time.
	roundsPerSecond float64
	// lifetimes is how many times a run sets the system up; each lifetime
	// times an equal share of the run's rounds.
	lifetimes int
	// warmup is the rounds each campaign plays inside every set-up.
	warmup int
}

// minTimedRounds gives round_p99_ms at least ten samples beyond it.
const minTimedRounds = 1000

var workloads = []workload{
	{name: "multitask-swarm", kind: inProcess, tasks: 16, bidsPerRound: 512,
		posLo: 0.1, posHi: 0.6, roundsPerSecond: 300, lifetimes: 6, warmup: 30},
	{name: "singletask-fptas", kind: inProcess, tasks: 1, bidsPerRound: 24,
		posLo: 0.05, posHi: 0.3, epsilon: 0.5, roundsPerSecond: 100, lifetimes: 14, warmup: 10},
	{name: "durable-tcp", kind: durableTCP, tasks: 8, bidsPerRound: 128,
		posLo: 0.1, posHi: 0.6, roundsPerSecond: 320, lifetimes: 10, warmup: 60},
	{name: "replicated-cluster", kind: replicated, tasks: 8, bidsPerRound: 128,
		posLo: 0.1, posHi: 0.6, roundsPerSecond: 200, lifetimes: 10, warmup: 10},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// timedRounds is the per-campaign round count of a run's timed window.
func (wl workload) timedRounds(seconds int) int {
	total := int(math.Ceil(wl.roundsPerSecond * float64(seconds)))
	if total < minTimedRounds {
		total = minTimedRounds
	}
	return (total + campaigns - 1) / campaigns
}

func (wl workload) taskList() []auction.Task {
	tasks := make([]auction.Task, wl.tasks)
	for i := range tasks {
		tasks[i] = auction.Task{ID: auction.TaskID(i + 1), Requirement: requirement}
	}
	return tasks
}

// campaignConfigs registers the two campaigns, each serving rounds rounds
// of exactly one batch.
func (wl workload) campaignConfigs(rounds int) []engine.CampaignConfig {
	ccs := make([]engine.CampaignConfig, campaigns)
	for c := range ccs {
		ccs[c] = engine.CampaignConfig{
			ID:              campaignID(c),
			Tasks:           wl.taskList(),
			ExpectedBidders: wl.bidsPerRound,
			Rounds:          rounds,
			Alpha:           alpha,
			Epsilon:         wl.epsilon,
		}
	}
	return ccs
}

func campaignID(c int) string { return fmt.Sprintf("c%d", c+1) }

// Users are numbered per campaign so the two campaigns never share one;
// each campaign's fleet bids in every round.
const userStride = 100000

func firstUser(c int) int { return c*userStride + 1 }

// aggregatorID is the TCP session's registration identity (it carries the
// fleet's bids but never bids itself).
func aggregatorID(c int) auction.UserID { return auction.UserID(90*userStride + c) }

// roundInput is one round's generated input.
type roundInput struct {
	bids []auction.Bid
	// success is each bid's execution outcome for the in-process path,
	// drawn with the bid's PoS; over TCP the agent draws it from seed.
	success []bool
	seed    int64
}

// inputs holds each campaign's pool of distinct rounds; round k of a
// campaign plays pool entry k mod len(pool).
type inputs struct {
	pool [campaigns][]roundInput
}

func (in *inputs) round(c, k int) *roundInput {
	p := in.pool[c]
	return &p[k%len(p)]
}

// generate draws every campaign's input pool from seed. It runs before any
// call into the system, so set-up and the timed window see only the bids.
func generate(wl workload, seed int64, rounds int) *inputs {
	size := (poolBids + wl.bidsPerRound - 1) / wl.bidsPerRound
	if size > rounds {
		size = rounds
	}
	in := &inputs{}
	for c := 0; c < campaigns; c++ {
		rng := stats.NewRand(seed*campaigns + int64(c))
		pool := make([]roundInput, size)
		for k := range pool {
			pool[k] = wl.roundInput(rng, c)
		}
		in.pool[c] = pool
	}
	return in
}

func (wl workload) roundInput(rng *rand.Rand, c int) roundInput {
	rd := roundInput{
		bids:    make([]auction.Bid, wl.bidsPerRound),
		success: make([]bool, wl.bidsPerRound),
		seed:    rng.Int63(),
	}
	for i := range rd.bids {
		// Multi-task bids cover a run of 1–3 consecutive tasks.
		n := 1
		if wl.tasks > 1 {
			n = 1 + rng.Intn(3)
		}
		start := rng.Intn(wl.tasks)
		ids := make([]auction.TaskID, n)
		pos := make(map[auction.TaskID]float64, n)
		for j := range ids {
			ids[j] = auction.TaskID((start+j)%wl.tasks + 1)
			pos[ids[j]] = stats.Uniform(rng, wl.posLo, wl.posHi)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		cost := stats.NormalPositive(rng, costMean, costStd, 1)
		rd.bids[i] = auction.NewBid(auction.UserID(firstUser(c)+i), ids, cost, pos)
		for _, id := range ids {
			if stats.Bernoulli(rng, pos[id]) {
				rd.success[i] = true
			}
		}
	}
	return rd
}
