package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/obs/spantool"
)

// smokeJournal opens a node-identified journal and returns it with its path.
func smokeJournal(t *testing.T, dir, node string) (*span.Journal, string) {
	t.Helper()
	path := filepath.Join(dir, node+".jsonl")
	j, err := span.OpenJournal(span.JournalConfig{Path: path, Node: node})
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

// shardCampaign returns a campaign ID the ring places on the wanted shard.
func shardCampaign(t *testing.T, r *cluster.Ring, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("camp-%d", i)
		if owner, ok := r.Owner(id); ok && owner == shard {
			return id
		}
	}
	t.Fatalf("no candidate campaign hashes onto shard %s", shard)
	return ""
}

// TestTraceSmoke is the distributed-tracing gate wired into make trace-smoke:
// a three-node cluster (leader, replicating follower, router) plus traced
// agents, every process journaling to its own node-identified file. The
// journals are stitched with obsctl and every settled round must form one
// connected trace tree spanning at least three distinct node IDs, with the
// follower's replication appends joining the same trees.
func TestTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	leaderJ, leaderPath := smokeJournal(t, dir, "n1")
	followerJ, followerPath := smokeJournal(t, dir, "n2")
	routerJ, routerPath := smokeJournal(t, dir, "router")
	agentJ, agentPath := smokeJournal(t, dir, "agent-fleet")

	ring := cluster.NewRing([]string{"s1", "s2"}, 0)
	campA := shardCampaign(t, ring, "s1")
	campaign := engine.CampaignConfig{
		ID:              campA,
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
		ExpectedBidders: 2,
		Rounds:          2,
		Alpha:           10,
		Epsilon:         0.5,
	}

	// Round 2's agents start only once round 1 has settled, which is after
	// the engine reopened bidding: an agent returns at its settlement, which
	// can reach it first, and a bid sent in between is rejected.
	settled := make(chan struct{}, 2)
	n1, err := cluster.StartNode(cluster.NodeConfig{
		Name:      "n1",
		Shard:     "s1",
		StateDir:  t.TempDir(),
		AgentAddr: "127.0.0.1:0",
		RepAddr:   "127.0.0.1:0",
		Campaigns: []engine.CampaignConfig{campaign},
		SpanSinks: []span.Sink{leaderJ},
		Engine:    engine.Config{OnRound: func(engine.RoundResult) { settled <- struct{}{} }},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	n2, err := cluster.StartNode(cluster.NodeConfig{
		Name:      "n2",
		Shard:     "s2",
		StateDir:  t.TempDir(),
		AgentAddr: "127.0.0.1:0",
		Campaigns: nil, // s2 hosts no campaigns; n2 is here to replicate s1
		Follow: &cluster.FollowConfig{
			Shard:     "s1",
			LeaderRep: n1.RepAddr(),
			StateDir:  t.TempDir(),
			AgentAddr: reservedAddr(t),
		},
		SpanSinks: []span.Sink{followerJ},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	router, err := cluster.StartRouter("127.0.0.1:0", cluster.RouterConfig{
		Ring: ring,
		Members: map[string][]string{
			"s1": {n1.AgentAddr("s1")},
			"s2": {n2.AgentAddr("s2")},
		},
		SpanSinks: []span.Sink{routerJ},
		Node:      "router",
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	spans := span.New(agentJ).SetNode("agent-fleet")
	backoff := agent.Backoff{Attempts: 10, Base: 50 * time.Millisecond, Max: time.Second}
	for round := 1; round <= 2; round++ {
		if round > 1 {
			<-settled
		}
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			user := auction.UserID(100*round + i + 1)
			cost, pos := float64(i+2), 0.6+0.1*float64(i)
			go func() {
				_, err := agent.RunWithBackoff(context.Background(), agent.Config{
					Addr:     router.Addr(),
					Campaign: campA,
					User:     user,
					TrueBid: auction.NewBid(user, []auction.TaskID{1}, cost,
						map[auction.TaskID]float64{1: pos}),
					Seed:    int64(user),
					Timeout: 10 * time.Second,
					Spans:   spans,
				}, backoff)
				errs <- err
			}()
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d agent: %v", round, err)
			}
		}
	}

	// Quiesce replication so the follower's apply spans cover every settled
	// round before the journals close.
	leaderWAL := n1.WAL("s1")
	deadline := time.Now().Add(10 * time.Second)
	for leaderWAL.LastSeq() == 0 || n2.AppliedSeq() != leaderWAL.LastSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: applied %d, leader durable %d",
				n2.AppliedSeq(), leaderWAL.LastSeq())
		}
		time.Sleep(10 * time.Millisecond)
	}

	router.Close()
	n1.Close()
	n2.Close()
	for _, j := range []*span.Journal{leaderJ, followerJ, routerJ, agentJ} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if n := j.Dropped(); n != 0 {
			t.Errorf("journal %s dropped %d spans", j.Node(), n)
		}
	}

	// Stitch all four journals and validate the merged timeline.
	trace := filepath.Join(dir, "stitched.json")
	if _, err := capture(t, "stitch", "-o", trace,
		leaderPath, followerPath, routerPath, agentPath); err != nil {
		t.Fatalf("stitch: %v", err)
	}
	if out, err := capture(t, "validate", trace); err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("validate: %v (%s)", err, out)
	}

	// Every settled round must be one connected tree with ≥3 distinct nodes.
	var all []span.Record
	for _, path := range []string{leaderPath, followerPath, routerPath, agentPath} {
		recs, err := span.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
	}
	rts := spantool.RoundTraces(all)
	if len(rts) != 2 {
		t.Fatalf("%d round traces, want 2: %+v", len(rts), rts)
	}
	union := map[string]bool{}
	for _, rt := range rts {
		if rt.Campaign != campA {
			t.Errorf("round trace for campaign %q, want %q", rt.Campaign, campA)
		}
		if len(rt.Nodes) < 3 {
			t.Errorf("round %d trace tree spans nodes %v, want ≥3", rt.Round, rt.Nodes)
		}
		for _, n := range rt.Nodes {
			union[n] = true
		}
	}
	for _, want := range []string{"n1", "n2", "router", "agent-fleet"} {
		if !union[want] {
			t.Errorf("no settled round's trace tree includes node %q (union %v)", want, union)
		}
	}
}

// reservedAddr picks a free loopback port and releases it — the standby agent
// address a follower binds only at promotion.
func reservedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
