package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/cluster"
	"crowdsense/internal/engine"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
)

// Session timeouts. A TCP round takes milliseconds, so a session still
// open after sessionTimeout is stuck and is counted as failed.
const (
	ioTimeout      = 5 * time.Second
	sessionTimeout = 10 * time.Second
	steadyTimeout  = 30 * time.Second
)

// system is one workload's running deployment, built from public APIs only.
type system interface {
	// play drives campaign c's round (1-based) with in and reports how it
	// went; it does not wait for the round to close.
	play(ctx context.Context, c, round int, in *roundInput) playResult
	engine() *engine.Engine
	// steady returns once every event is durable and every log reader has
	// caught up with it.
	steady() error
	counters() sysCounters
	close() error
}

// playResult is one round attempt as its driver saw it.
type playResult struct {
	latency time.Duration // batch submitted → settlements held
	ok      int           // bids admitted and settled
	err     error         // session or submission failure
	// consumed reports whether the attempt used up the campaign round (its
	// bids were admitted, so the round will close); a session that failed
	// before admission leaves the round open for the next attempt.
	consumed bool

	// In-process layer timings: SubmitBids, Await, Settle.
	submit, await, settle time.Duration
}

// sysCounters are the monotonic counters a system exposes; the timed
// window reports their deltas.
type sysCounters struct {
	walSeq           uint64
	routed, rejected int64
	repEvents        float64
	repBytes         float64
	lagEvents        float64
}

// sysConfig is what every system constructor needs.
type sysConfig struct {
	wl      workload
	dir     string // scratch state directory, removed by close
	rounds  int    // rounds per campaign before the campaigns close
	onRound func(engine.RoundResult)
	probes  *probes // nil in the untraced run
}

func startSystem(cfg sysConfig) (system, error) {
	switch cfg.wl.kind {
	case inProcess:
		return startInProcess(cfg)
	case durableTCP:
		return startDurable(cfg)
	default:
		return startReplicated(cfg)
	}
}

// serving runs an engine's Serve or ServeLocal until its campaigns close
// or stop is called.
type serving struct {
	cancel context.CancelFunc
	done   chan error
}

func serve(run func(context.Context) error) *serving {
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- run(ctx) }()
	return s
}

func (s *serving) stop() error {
	s.cancel()
	if err := <-s.done; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// --- in-process: engine.SubmitBids -----------------------------------------

type inProcessSystem struct {
	eng *engine.Engine
	srv *serving
}

func startInProcess(cfg sysConfig) (*inProcessSystem, error) {
	eng := engine.New(engine.Config{OnRound: cfg.onRound})
	for _, cc := range cfg.wl.campaignConfigs(cfg.rounds) {
		if err := eng.AddCampaign(cc); err != nil {
			return nil, err
		}
	}
	return &inProcessSystem{eng: eng, srv: serve(eng.ServeLocal)}, nil
}

func (s *inProcessSystem) play(ctx context.Context, c, _ int, in *roundInput) playResult {
	start := time.Now()
	d, err := s.eng.SubmitBids(ctx, campaignID(c), in.bids)
	for errors.Is(err, engine.ErrNotServing) {
		// ServeLocal's admitter is still starting (first round of set-up).
		time.Sleep(100 * time.Microsecond)
		start = time.Now()
		d, err = s.eng.SubmitBids(ctx, campaignID(c), in.bids)
	}
	if err != nil {
		return playResult{err: err}
	}
	submitted := time.Now()
	roundErr := d.Await(ctx)
	awaited := time.Now()
	first := firstUser(c)
	d.Settle(func(bid auction.Bid, _ mechanism.Award) bool { return in.success[int(bid.User)-first] })
	end := time.Now()
	r := playResult{latency: end.Sub(start), consumed: true,
		submit: submitted.Sub(start), await: awaited.Sub(submitted), settle: end.Sub(awaited)}
	if roundErr != nil {
		r.err = fmt.Errorf("round failed: %w", roundErr)
	} else {
		r.ok = d.Admitted()
	}
	return r
}

func (s *inProcessSystem) engine() *engine.Engine { return s.eng }
func (s *inProcessSystem) steady() error          { return nil }
func (s *inProcessSystem) counters() sysCounters  { return sysCounters{} }
func (s *inProcessSystem) close() error           { return s.srv.stop() }

// --- TCP sessions ----------------------------------------------------------

// playSession runs one aggregator session (register → tasks → bid_batch →
// award_batch → report_batch → settle_batch) against addr. A failed session
// consumed its round unless the campaign is still collecting that round.
func playSession(ctx context.Context, eng *engine.Engine, addr string, c, round int, in *roundInput) playResult {
	start := time.Now()
	sctx, cancel := context.WithTimeout(ctx, sessionTimeout)
	res, err := agent.RunBatch(sctx, agent.BatchConfig{
		Addr:       addr,
		Campaign:   campaignID(c),
		Aggregator: aggregatorID(c),
		Bids:       in.bids,
		Seed:       in.seed + int64(round),
		Timeout:    ioTimeout,
		Binary:     true,
	})
	cancel()
	r := playResult{latency: time.Since(start), consumed: true}
	if err != nil {
		r.err = err
		cs := eng.Snapshot().Campaigns[campaignID(c)]
		r.consumed = !(cs.Round == round && cs.State == "collecting")
		return r
	}
	r.ok = res.Admitted
	return r
}

// --- durable-tcp: one WAL-backed node ---------------------------------------

type durableSystem struct {
	wal *store.WAL
	eng *engine.Engine
	srv *serving
	dir string
}

// startDurable wires a node like platformd -state-dir -reputation: a WAL as
// the event store with its default group commit, and the reputation store
// as the PoS adjuster.
func startDurable(cfg sysConfig) (*durableSystem, error) {
	wal, _, err := store.OpenWAL(store.WALConfig{Dir: cfg.dir})
	if err != nil {
		return nil, err
	}
	rep, err := reputation.NewStore(reputation.StoreConfig{})
	if err != nil {
		wal.Close()
		return nil, err
	}
	ecfg := engine.Config{Store: wal, Reputation: rep, OnRound: cfg.onRound}
	if p := cfg.probes; p != nil {
		p.store.inner = wal
		ecfg.Store = p.store
		p.adjust.rep.Store(rep)
		ecfg.Adjuster = p.adjust
	}
	eng := engine.New(ecfg)
	for _, cc := range cfg.wl.campaignConfigs(cfg.rounds) {
		if err := eng.AddCampaign(cc); err != nil {
			wal.Close()
			return nil, err
		}
	}
	if err := eng.Listen("127.0.0.1:0"); err != nil {
		wal.Close()
		return nil, err
	}
	return &durableSystem{wal: wal, eng: eng, srv: serve(eng.Serve), dir: cfg.dir}, nil
}

func (s *durableSystem) play(ctx context.Context, c, round int, in *roundInput) playResult {
	return playSession(ctx, s.eng, s.eng.Addr().String(), c, round, in)
}

func (s *durableSystem) engine() *engine.Engine { return s.eng }
func (s *durableSystem) steady() error          { return s.wal.Sync() }
func (s *durableSystem) counters() sysCounters  { return sysCounters{walSeq: s.wal.LastSeq()} }

func (s *durableSystem) close() error {
	err := s.srv.stop()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// --- replicated-cluster: router → leader → follower, audited tail ----------

type replicatedSystem struct {
	leader, follower *cluster.Node
	router           *cluster.Router
	wal              *store.WAL
	aud              *audit.Auditor
	tail             *auditTail
	dir              string
}

func startReplicated(cfg sysConfig) (_ *replicatedSystem, err error) {
	s := &replicatedSystem{dir: cfg.dir}
	defer func() {
		if err != nil {
			s.shutdown()
		}
	}()
	ecfg := engine.Config{OnRound: cfg.onRound}
	if p := cfg.probes; p != nil {
		ecfg.Adjuster = p.adjust
	}
	s.leader, err = cluster.StartNode(cluster.NodeConfig{
		Name:       "leader",
		Shard:      "s1",
		StateDir:   filepath.Join(cfg.dir, "leader"),
		AgentAddr:  "127.0.0.1:0",
		RepAddr:    "127.0.0.1:0",
		Campaigns:  cfg.wl.campaignConfigs(cfg.rounds),
		Engine:     ecfg,
		Reputation: true,
	})
	if err != nil {
		return s, err
	}
	if p := cfg.probes; p != nil {
		p.adjust.rep.Store(s.leader.Reputation("s1"))
	}
	// The follower leads an idle shard of its own and replicates s1.
	s.follower, err = cluster.StartNode(cluster.NodeConfig{
		Name:      "follower",
		Shard:     "s2",
		StateDir:  filepath.Join(cfg.dir, "follower"),
		AgentAddr: "127.0.0.1:0",
		Follow: &cluster.FollowConfig{
			Shard:     "s1",
			LeaderRep: s.leader.RepAddr(),
			StateDir:  filepath.Join(cfg.dir, "replica"),
			AgentAddr: "127.0.0.1:0",
		},
	})
	if err != nil {
		return s, err
	}
	s.router, err = cluster.StartRouter("127.0.0.1:0", cluster.RouterConfig{
		Ring:    cluster.NewRing([]string{"s1"}, 0),
		Members: map[string][]string{"s1": {s.leader.AgentAddr("s1")}},
	})
	if err != nil {
		return s, err
	}
	s.wal = s.leader.WAL("s1")
	s.aud = audit.New(audit.Config{Shard: "s1"})
	s.tail, err = openAuditTail(s.wal, s.aud)
	return s, err
}

func (s *replicatedSystem) play(ctx context.Context, c, round int, in *roundInput) playResult {
	return playSession(ctx, s.engine(), s.router.Addr(), c, round, in)
}

func (s *replicatedSystem) engine() *engine.Engine { return s.leader.Engine("s1") }

// steady waits until every event is durable and the follower applied it.
func (s *replicatedSystem) steady() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	seq := s.wal.LastSeq()
	deadline := time.Now().Add(steadyTimeout)
	for s.follower.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at seq %d, leader at %d after %s", s.follower.AppliedSeq(), seq, steadyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// audit drains the log into the auditor; call it once steady returned.
func (s *replicatedSystem) audit() error { return s.tail.catchUp(s.wal.LastSeq()) }

func (s *replicatedSystem) counters() sysCounters {
	routed, rejected, _ := s.router.Stats()
	var sessions int64
	for _, n := range routed {
		sessions += n
	}
	fams := s.leader.MetricFamilies()
	return sysCounters{
		walSeq:    s.wal.LastSeq(),
		routed:    sessions,
		rejected:  rejected,
		repEvents: familyValue(fams, "crowdsense_cluster_replicated_events_total"),
		repBytes:  familyValue(fams, "crowdsense_cluster_replicated_bytes_total"),
		lagEvents: familyValue(fams, "crowdsense_cluster_replication_lag_events"),
	}
}

func (s *replicatedSystem) close() error {
	err := s.shutdown()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *replicatedSystem) shutdown() error {
	var err error
	if s.tail != nil {
		s.tail.stream.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range []*cluster.Node{s.follower, s.leader} {
		if n != nil {
			if cerr := n.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
