package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
)

// freeAddr reserves a loopback port and releases it for run to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// playJournaledRound serves one single-campaign round through run with a
// round journal (and, when stateDir is set, a WAL), plays it with one
// campaign-less aggregator carrying two fixed bids in a fixed order, and
// returns the journal bytes.
func playJournaledRound(t *testing.T, stateDir string) []byte {
	t.Helper()
	addr := freeAddr(t)
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	args := []string{"-addr", addr, "-tasks", "1", "-requirement", "0.5",
		"-bidders", "2", "-rounds", "1", "-journal", journal}
	if stateDir != "" {
		args = append(args, "-state-dir", stateDir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- run(ctx, args) }()

	bid := func(user auction.UserID, cost, pos float64) auction.Bid {
		return auction.NewBid(user, []auction.TaskID{1}, cost, map[auction.TaskID]float64{1: pos})
	}
	_, err := agent.RunBatchWithBackoff(ctx, agent.BatchConfig{
		Addr:       addr,
		Aggregator: 100,
		Bids:       []auction.Bid{bid(1, 2, 0.6), bid(2, 3, 0.7)},
		Seed:       7,
		Timeout:    10 * time.Second,
	}, agent.Backoff{Attempts: 20, Base: 20 * time.Millisecond, Max: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalIdenticalInMemoryAndDurable: the round journal has one writer,
// the event-stream JournalStore, whether or not a WAL backs the engine, so
// the same round journals byte-identically in both modes.
func TestJournalIdenticalInMemoryAndDurable(t *testing.T) {
	inMemory := playJournaledRound(t, "")
	durable := playJournaledRound(t, t.TempDir())
	if !bytes.Equal(inMemory, durable) {
		t.Errorf("journal differs between modes:\nin-memory %s\ndurable   %s", inMemory, durable)
	}
	if lines := strings.Count(string(inMemory), "\n"); lines != 1 {
		t.Errorf("journal has %d lines, want 1:\n%s", lines, inMemory)
	}
	if !bytes.Contains(inMemory, []byte(`"campaign":"default"`)) {
		t.Errorf("journal line does not name the default campaign:\n%s", inMemory)
	}
}

// TestRunRejectsBadCounts: counts no engine could serve are refused before
// anything is bound or opened.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, args := range [][]string{
		{"-rounds", "0"},
		{"-campaigns", "-1"},
		{"-tasks", "0"},
		{"-tasks", "-3"},
	} {
		err := run(context.Background(), args)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run %v = %v, want an error naming %s", args, err, args[0])
		}
	}
}
