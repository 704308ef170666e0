package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/obs/spantool"
)

// recordJournal drives a real two-round engine campaign with a journal sink
// attached and returns the journal path — the fixture every subcommand test
// reads, produced the same way platformd -span-journal produces it.
func recordJournal(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	journal, err := span.OpenJournal(span.JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	// Each round's agents start only once the engine has opened that round:
	// an agent returns at its settlement, which can reach it before the
	// engine reopens bidding, and a bid sent in between is rejected.
	opened := make(chan int, 2)
	e := engine.New(engine.Config{SpanSinks: []span.Sink{journal},
		OnRoundOpen: func(string, int) { opened <- 1 }})
	err = e.AddCampaign(engine.CampaignConfig{
		ID:              "rt",
		Tasks:           []auction.Task{{ID: 1, Requirement: 0.6}},
		ExpectedBidders: 3,
		Rounds:          2,
		Alpha:           10,
		Epsilon:         0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- e.Serve(ctx)
	}()
	for round := 0; round < 2; round++ {
		<-opened
		var wg sync.WaitGroup
		for i := 1; i <= 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				user := auction.UserID(i)
				_, err := agent.Run(context.Background(), agent.Config{
					Addr:     e.Addr().String(),
					Campaign: "rt",
					User:     user,
					TrueBid: auction.NewBid(user, []auction.TaskID{1}, float64(i+1),
						map[auction.TaskID]float64{1: 0.8}),
					Seed:    int64(i),
					Timeout: 10 * time.Second,
				})
				if err != nil {
					t.Errorf("round %d agent %d: %v", round, i, err)
				}
			}(i)
		}
		wg.Wait()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs one obsctl invocation with stdout redirected to a temp file
// and returns what it wrote.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	runErr := run(args, out)
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// TestRoundTrip is the record → convert → validate check wired into make
// check: a live engine writes the journal, obsctl converts it, and the
// resulting Chrome trace must pass validation with phases and probes nested.
func TestRoundTrip(t *testing.T) {
	journal := recordJournal(t)
	trace := filepath.Join(t.TempDir(), "trace.json")

	if _, err := capture(t, "convert", "-o", trace, journal); err != nil {
		t.Fatalf("convert: %v", err)
	}
	out, err := capture(t, "validate", trace)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("validate output %q, want ok", out)
	}

	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tf spantool.TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name]++
		}
	}
	for _, want := range []string{span.NameCampaign, span.NameRound,
		span.NamePhaseComputing, span.NameWD, span.NameCriticalBid, span.NameKnapsackSolve} {
		if names[want] == 0 {
			t.Errorf("trace has no %q events; got %v", want, names)
		}
	}
}

func TestSummaryAndTail(t *testing.T) {
	journal := recordJournal(t)

	out, err := capture(t, "summary", "-top", "3", journal)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	for _, want := range []string{span.NameCampaign, span.NameRound, "slowest rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}

	out, err = capture(t, "tail", "-n", "4", journal)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 4 {
		t.Errorf("tail -n 4 printed %d lines:\n%s", lines, out)
	}
	// The campaign root is always the last record flushed.
	if !strings.Contains(out, span.NameCampaign) {
		t.Errorf("tail output missing campaign span:\n%s", out)
	}

	out, err = capture(t, "tail", "-name", span.NameRound, "-n", "0", journal)
	if err != nil {
		t.Fatalf("tail -name: %v", err)
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 2 {
		t.Errorf("tail -name round printed %d lines, want 2:\n%s", lines, out)
	}
}

// TestSLOCommand evaluates a live journal against offline p99 targets: an
// impossible 1ns round target must report as breaching, a generous one must
// not, and the targeted row sorts first.
func TestSLOCommand(t *testing.T) {
	journal := recordJournal(t)

	out, err := capture(t, "slo", "-targets", "round=1ns", journal)
	if err != nil {
		t.Fatalf("slo: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("slo output too short:\n%s", out)
	}
	first := lines[3] // spans count, blank, header, then the first stat row
	if !strings.HasPrefix(first, span.NameRound) || !strings.Contains(first, "100.00!") {
		t.Errorf("targeted round row should sort first and breach:\n%s", out)
	}

	out, err = capture(t, "slo", "-targets", "round=10m", journal)
	if err != nil {
		t.Fatalf("slo: %v", err)
	}
	if strings.Contains(out, "!") {
		t.Errorf("generous target should not breach:\n%s", out)
	}

	out, err = capture(t, "version")
	if err != nil {
		t.Fatalf("version: %v", err)
	}
	if !strings.Contains(out, "obsctl devel") {
		t.Errorf("version output %q, want obsctl devel", out)
	}
}

func TestBadInvocations(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("no command should fail")
	}
	if err := run([]string{"frobnicate"}, os.Stdout); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{"summary"}, os.Stdout); err == nil {
		t.Error("summary with no files should fail")
	}
	if err := run([]string{"tail", "/nonexistent/spans.jsonl"}, os.Stdout); err == nil {
		t.Error("missing journal should fail")
	}
	if err := run([]string{"validate"}, os.Stdout); err == nil {
		t.Error("validate with no files should fail")
	}
}
