package platform

import (
	"bytes"
	"strings"
	"testing"

	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/store"
	"crowdsense/internal/wire"
)

// sampleRound settles the paper's §III-A example as round 1, every winner
// succeeding, in the reduced form the event stream produces.
func sampleRound(t *testing.T) ([]auction.Task, store.RoundRecord) {
	t.Helper()
	tasks := []auction.Task{{ID: 1, Requirement: 0.9}}
	bids := []auction.Bid{
		auction.NewBid(1, []auction.TaskID{1}, 3, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(2, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.7}),
		auction.NewBid(3, []auction.TaskID{1}, 1, map[auction.TaskID]float64{1: 0.5}),
	}
	a, err := auction.New(tasks, bids)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&mechanism.SingleTask{Epsilon: 0.1, Alpha: 10}).Run(a)
	if err != nil {
		t.Fatal(err)
	}
	settlements := make(map[auction.UserID]wire.Settle, len(out.Awards))
	for _, aw := range out.Awards {
		settlements[aw.User] = wire.Settle{
			Success: true,
			Reward:  aw.RewardOnSuccess,
			Utility: aw.RewardOnSuccess - bids[aw.BidIndex].Cost,
		}
	}
	return tasks, store.RoundRecord{Round: 1, Outcome: out, Bids: bids, Settlements: settlements}
}

func TestJournalRoundTrip(t *testing.T) {
	tasks, result := sampleRound(t)
	entry := EntryFromRecord("", tasks, result)
	var buf bytes.Buffer
	if err := WriteJournal(&buf, entry, entry); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	got := entries[0]
	if got.Round != 1 || len(got.Bids) != 3 || len(got.Tasks) != 1 {
		t.Errorf("entry = %+v", got)
	}
	if got.SocialCost != result.Outcome.SocialCost {
		t.Errorf("social cost %g, want %g", got.SocialCost, result.Outcome.SocialCost)
	}
	if len(got.Winners) != len(result.Outcome.Awards) {
		t.Errorf("winners %d, want %d", len(got.Winners), len(result.Outcome.Awards))
	}
}

func TestJournalVoidRound(t *testing.T) {
	tasks := []auction.Task{{ID: 1, Requirement: 0.9}}
	entry := EntryFromRecord("", tasks, store.RoundRecord{Round: 3, Err: "infeasible"})
	if entry.Error == "" {
		t.Error("void round lost its error")
	}
	if len(entry.Winners) != 0 {
		t.Error("void round has winners")
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	if _, err := ReadJournal(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage journal should fail")
	}
}

func TestAuditCleanJournal(t *testing.T) {
	tasks, result := sampleRound(t)
	entries := []JournalEntry{
		EntryFromRecord("", tasks, result),
		EntryFromRecord("", tasks, store.RoundRecord{Round: 2, Err: "void"}),
	}
	if findings := Audit(entries); len(findings) != 0 {
		t.Errorf("clean journal produced findings: %v", findings)
	}
}

func TestAuditDetectsTampering(t *testing.T) {
	tasks, result := sampleRound(t)
	base := EntryFromRecord("", tasks, result)

	overpaid := base
	overpaid.Settlements = append([]journalSettle(nil), base.Settlements...)
	overpaid.Settlements[0].Reward += 5

	wrongCost := base
	wrongCost.SocialCost += 3

	ghost := base
	ghost.Settlements = append(append([]journalSettle(nil), base.Settlements...),
		journalSettle{User: 999, Success: true, Reward: 50})

	badGap := base
	badGap.Winners = append([]journalAward(nil), base.Winners...)
	badGap.Winners[0].RewardOnFailure = badGap.Winners[0].RewardOnSuccess // gap 0 ≠ α

	// Pay a successful winner below their declared cost: violates both the
	// recorded contract and individual rationality.
	underpaid := base
	underpaid.Settlements = append([]journalSettle(nil), base.Settlements...)
	underpaid.Settlements[0].Reward = -1
	underpaid.Settlements[0].Utility = underpaid.Settlements[0].Reward - costOf(base, underpaid.Settlements[0].User)

	// Contract promising more than cost + α on success breaks the budget band.
	lavish := base
	lavish.Winners = append([]journalAward(nil), base.Winners...)
	lavish.Winners[0].RewardOnSuccess = costOf(base, lavish.Winners[0].User) + base.Alpha + 1
	lavish.Winners[0].RewardOnFailure = lavish.Winners[0].RewardOnSuccess - base.Alpha // keep the gap clean

	cases := []struct {
		name  string
		entry JournalEntry
		rule  string
		want  string
	}{
		{"overpaid", overpaid, RuleContract, "paid"},
		{"wrong social cost", wrongCost, RuleSocialCost, "social cost"},
		{"ghost settlement", ghost, RuleNonWinner, "non-winner"},
		{"bad EC gap", badGap, RuleRewardGap, "reward gap"},
		{"underpaid winner", underpaid, RuleIR, "individually rational"},
		{"budget band", lavish, RuleBudget, "budget band"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			findings := Audit([]JournalEntry{c.entry})
			if len(findings) == 0 {
				t.Fatal("tampering not detected")
			}
			found := false
			for _, f := range findings {
				if strings.Contains(f.String(), c.want) {
					found = true
					if f.Rule != c.rule {
						t.Errorf("finding %q has rule %q, want %q", f.Problem, f.Rule, c.rule)
					}
				}
			}
			if !found {
				t.Errorf("no finding mentioning %q in %v", c.want, findings)
			}
		})
	}
}

// costOf returns the declared cost of user's bid in the entry.
func costOf(e JournalEntry, user int) float64 {
	for _, b := range e.Bids {
		if b.User == user {
			return b.Cost
		}
	}
	return 0
}

func TestSummarize(t *testing.T) {
	tasks, result := sampleRound(t)
	entries := []JournalEntry{
		EntryFromRecord("", tasks, result),
		EntryFromRecord("", tasks, store.RoundRecord{Round: 2, Err: "void"}),
	}
	s := Summarize(entries)
	if s.Rounds != 2 || s.VoidRounds != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.TotalBids != 3 {
		t.Errorf("total bids = %d", s.TotalBids)
	}
	if s.SuccessRate != 1 {
		t.Errorf("success rate = %g, want 1 (all settlements succeeded)", s.SuccessRate)
	}
	if s.TotalPaid <= 0 || s.SocialCost <= 0 {
		t.Errorf("paid %g, cost %g", s.TotalPaid, s.SocialCost)
	}
}
