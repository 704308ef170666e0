package platform

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/wire"
)

// sessionConfig bounds per-message I/O in these tests' engines.
var sessionConfig = engine.Config{ConnTimeout: 10 * time.Second}

// These session tests drive the engine over loopback TCP as platformd does
// by default: one campaign under platformd's single-campaign ID, reached by
// campaign-less agents through the engine's default routing.
const defaultCampaign = "default"

func singleTaskCampaign(n int) engine.CampaignConfig {
	return engine.CampaignConfig{
		ID:              defaultCampaign,
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.9}},
		ExpectedBidders: n,
		Alpha:           10,
		Epsilon:         0.5,
	}
}

// startEngine registers cc on a fresh engine, binds it to a loopback port,
// and serves it in the background; done yields Serve's error.
func startEngine(t *testing.T, cfg engine.Config, cc engine.CampaignConfig) (eng *engine.Engine, addr string, done <-chan error) {
	t.Helper()
	eng = engine.New(cfg)
	if err := eng.AddCampaign(cc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		errs <- eng.Serve(ctx)
	}()
	return eng, eng.Addr().String(), errs
}

// awaitRound waits for a one-round campaign's Serve to return and yields
// the settled round; a round the mechanism could not settle fails the test.
func awaitRound(t *testing.T, eng *engine.Engine, done <-chan error) engine.RoundResult {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server timed out")
	}
	rounds := eng.Results()[defaultCampaign]
	if len(rounds) == 0 {
		t.Fatal("round did not complete")
	}
	if rounds[0].Err != nil {
		t.Fatalf("server: %v", rounds[0].Err)
	}
	return rounds[0]
}

func TestSingleTaskRoundOverTCP(t *testing.T) {
	// The paper's §III-A example: four users, requirement 0.9.
	eng, addr, done := startEngine(t, sessionConfig, singleTaskCampaign(4))

	users := []struct {
		id   auction.UserID
		cost float64
		pos  float64
	}{
		{1, 3, 0.7}, {2, 2, 0.7}, {3, 1, 0.5}, {4, 4, 0.8},
	}
	var wg sync.WaitGroup
	agentResults := make([]agent.Result, len(users))
	agentErrs := make([]error, len(users))
	for i, u := range users {
		wg.Add(1)
		go func(i int, id auction.UserID, cost, pos float64) {
			defer wg.Done()
			res, err := agent.Run(context.Background(), agent.Config{
				Addr: addr,
				User: id,
				TrueBid: auction.NewBid(id, []auction.TaskID{1}, cost,
					map[auction.TaskID]float64{1: pos}),
				Seed:    int64(id),
				Timeout: 10 * time.Second,
			})
			agentResults[i] = res
			agentErrs[i] = err
		}(i, u.id, u.cost, u.pos)
	}
	wg.Wait()
	for i, err := range agentErrs {
		if err != nil {
			t.Fatalf("agent %d: %v", i+1, err)
		}
	}
	round := awaitRound(t, eng, done)

	// The mechanism's selection covers the requirement at minimum cost
	// (±ε); the known optimum is 5.
	if round.Outcome.SocialCost > 5*(1+0.5)+1e-9 {
		t.Errorf("social cost %g above FPTAS bound", round.Outcome.SocialCost)
	}
	winners := 0
	for i, res := range agentResults {
		if !res.Selected {
			continue
		}
		winners++
		if res.Award.RewardOnSuccess <= res.Award.RewardOnFailure {
			t.Errorf("agent %d: EC rewards not ordered: %+v", i+1, res.Award)
		}
		// Settlement matches the award contract.
		want := res.Award.RewardOnFailure
		if res.Settle.Success {
			want = res.Award.RewardOnSuccess
		}
		if math.Abs(res.Settle.Reward-want) > 1e-9 {
			t.Errorf("agent %d: settle reward %g, want %g", i+1, res.Settle.Reward, want)
		}
	}
	if winners == 0 {
		t.Fatal("no winners")
	}
	if len(round.Settlements) != winners {
		t.Errorf("settlements = %d, winners = %d", len(round.Settlements), winners)
	}
}

func TestMultiTaskRoundOverTCP(t *testing.T) {
	cc := engine.CampaignConfig{
		ID: defaultCampaign,
		Tasks: []auction.Task{
			{ID: 1, Requirement: 0.6},
			{ID: 2, Requirement: 0.6},
		},
		ExpectedBidders: 3,
		Alpha:           10,
	}
	eng, addr, done := startEngine(t, sessionConfig, cc)

	bids := []auction.Bid{
		auction.NewBid(1, []auction.TaskID{1, 2}, 5, map[auction.TaskID]float64{1: 0.5, 2: 0.6}),
		auction.NewBid(2, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(3, []auction.TaskID{2}, 3, map[auction.TaskID]float64{2: 0.8}),
	}
	var wg sync.WaitGroup
	for i, bid := range bids {
		wg.Add(1)
		go func(i int, bid auction.Bid) {
			defer wg.Done()
			if _, err := agent.Run(context.Background(), agent.Config{
				Addr:    addr,
				User:    bid.User,
				TrueBid: bid,
				Seed:    int64(i + 1),
				Timeout: 10 * time.Second,
			}); err != nil {
				t.Errorf("agent %d: %v", i+1, err)
			}
		}(i, bid)
	}
	wg.Wait()
	if round := awaitRound(t, eng, done); len(round.Outcome.Selected) == 0 {
		t.Error("no winners")
	}
}

func TestDuplicateUserRejected(t *testing.T) {
	cc := singleTaskCampaign(2)
	cc.Tasks[0].Requirement = 0.5
	eng, addr, done := startEngine(t, sessionConfig, cc)

	bid := auction.NewBid(7, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8})
	// First connection with user 7 succeeds through bidding; second one
	// with the same ID must be rejected.
	first := make(chan error, 1)
	go func() {
		_, err := agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 7, TrueBid: bid, Seed: 1, Timeout: 10 * time.Second,
		})
		first <- err
	}()
	time.Sleep(200 * time.Millisecond) // let the first bid land
	_, err := agent.Run(context.Background(), agent.Config{
		Addr: addr, User: 7, TrueBid: bid, Seed: 2, Timeout: 2 * time.Second,
	})
	if err == nil {
		t.Error("duplicate user should be rejected")
	}
	// Unblock the round: a second distinct user completes it.
	go func() {
		bid2 := auction.NewBid(8, []auction.TaskID{1}, 3, map[auction.TaskID]float64{1: 0.9})
		_, _ = agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 8, TrueBid: bid2, Seed: 3, Timeout: 10 * time.Second,
		})
	}()
	awaitRound(t, eng, done)
	if err := <-first; err != nil {
		t.Errorf("first agent failed: %v", err)
	}
}

func TestMalformedClientGetsError(t *testing.T) {
	cc := singleTaskCampaign(1)
	cc.Tasks[0].Requirement = 0.5
	eng, addr, done := startEngine(t, sessionConfig, cc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := wire.NewCodec(conn)
	// Send a bid before registering: protocol violation.
	if err := codec.Write(&wire.Envelope{Type: wire.TypeBid, Bid: &wire.Bid{
		User: 1, Tasks: []int{1}, Cost: 1, PoS: map[int]float64{1: 0.9},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Expect(wire.TypeTasks); err == nil {
		t.Error("protocol violation should produce an error")
	}

	// Clean up: a well-behaved agent completes the round.
	go func() {
		bid := auction.NewBid(9, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.9})
		_, _ = agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 9, TrueBid: bid, Seed: 4, Timeout: 10 * time.Second,
		})
	}()
	awaitRound(t, eng, done)
}
