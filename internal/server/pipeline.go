// Package server turns the G-RCA pipeline into a durable, network-facing
// diagnosis service: the paper's platform ran as a shared system that
// applications fed continuously and queried on demand (§II), and this
// package is that shape — an HTTP/JSON API over a journal-backed event
// store.
//
// # Durability model
//
// The store is split into N independent shards (Config.Shards), each a
// complete lane of the write path with its own lock, ingest journal
// (journal.log), and applier goroutine. The journals are the only
// durable structure. They hold the accepted ingest batches — raw feed
// lines or normalized-event bodies — plus the finalize marker, each
// record in the journal of the one shard that owns it and stamped with
// the batch's global sequence number, so the shard journals merged by
// sequence are the total ingest history in commit order
// (internal/ingestlog). The collector's parse state (routing
// simulations, pairing buffers, rolling baselines) is a function of raw
// input, not of normalized events, so the raw batches are also what any
// store must be rebuilt from.
//
// A batch's fsynced journal append is its commit point. On startup the
// merged journals replay, streaming, through a fresh collector into a
// fresh sharded store, and that store is the one the service runs on:
// there is nothing to reconcile. Restart cost is therefore proportional
// to the journaled history (checkpoints that bound it are an open
// item). See DESIGN.md §15 for the ID-renumbering caveat when
// unacknowledged batches are torn out of the middle of the sequence.
//
// # Pipeline
//
// HTTP handlers dispatch batches under a single admission lock that
// assigns the global sequence number and a dense block of event IDs,
// splits the batch by the location→shard routing function, and enqueues
// each sub-batch onto its shard's bounded queue — when an involved queue
// is full the handler answers 429 with a depth-derived Retry-After
// instead of buffering, before any ID is allocated, so memory stays
// bounded and IDs stay dense under overload. Per-shard applier
// goroutines drain their queues in commit groups (one journal fsync for
// every batch waiting, then the store inserts), and a single finisher
// goroutine joins the shards' completions back into sequence order to
// run the streaming processors and reply — so responses are
// byte-identical for every shard count. Reads (diagnose, events, stats)
// bypass the queues and scatter-gather the shards.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/apps/backbone"
	"grca/internal/apps/bgpflap"
	"grca/internal/apps/cdn"
	"grca/internal/apps/pim"
	"grca/internal/collector"
	"grca/internal/conf"
	"grca/internal/dgraph"
	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/ingestlog"
	"grca/internal/locus"
	"grca/internal/netmodel"
	"grca/internal/netstate"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/replica"
	"grca/internal/rollup"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

var (
	mBatches    = obs.GetCounter("server.ingest.batches")
	mEvents     = obs.GetCounter("server.ingest.events")
	mRejected   = obs.GetCounter("server.http.429")
	mQueueDepth = obs.GetGauge("server.queue.depth")
	mRecovered  = obs.GetCounter("server.recovery.batches")
	// The journal group commit: one fsync per applier group or inline
	// feed/finalize append, timed from the first staged record to the
	// end of the fsync. The names predate the journal being the only
	// log; operators and benchmarks read them as the commit path's.
	mFsyncs     = obs.GetCounter("wal.fsyncs")
	mCommitSecs = obs.GetHistogram("wal.commit.seconds", obs.LatencyBuckets)
)

// appendCommit journals one record inline and fsyncs it: the commit
// point of a feed or finalize batch.
func appendCommit(j *wal.Journal, rec []byte) error {
	began := obs.Now()
	if err := j.Append(rec); err != nil {
		return err
	}
	mFsyncs.Inc()
	mCommitSecs.ObserveDuration(obs.Since(began))
	return nil
}

// appSpec binds one packaged RCA application to the service. display
// maps raw engine labels to the application's paper-table row names —
// the Result Browser's breakdown vocabulary.
type appSpec struct {
	name      string
	build     func() (*event.Library, *dgraph.Graph, error)
	newEngine func(store.Store, *netstate.View) (*engine.Engine, error)
	display   func(string) string
}

func appSpecs() []appSpec {
	return []appSpec{
		{"bgpflap", bgpflap.Build, bgpflap.NewEngine, bgpflap.DisplayLabel},
		{"cdn", cdn.Build, cdn.NewEngine, cdn.DisplayLabel},
		{"pim", pim.Build, pim.NewEngine, pim.DisplayLabel},
		{"backbone", backbone.Build, backbone.NewEngine, backbone.DisplayLabel},
	}
}

// knownSources mirrors the collector's feed switch so an unknown source
// is rejected before it is journaled.
var knownSources = map[string]bool{
	collector.SourceOSPFMon: true, collector.SourceBGPMon: true,
	collector.SourceSyslog: true, collector.SourceSNMP: true,
	collector.SourceTACACS: true, collector.SourceWorkflow: true,
	collector.SourceLayer1: true, collector.SourcePerfMon: true,
	collector.SourceKeynote: true, collector.SourceServer: true,
}

func knownSource(s string) bool { return knownSources[s] }

// maxEventDuration bounds a single event's run time when deriving each
// application's streaming grace period; 15 minutes matches the
// collector's flap-aggregation window (and cmd/grca stats).
const maxEventDuration = 15 * time.Minute

// Config configures Open.
type Config struct {
	// DataDir holds the ingest journal — per shard, under shard-<i>/ when
	// Shards > 1.
	DataDir string
	// Bundle supplies the configuration archive and manifest (collection
	// window, CDN deployment). Its Feeds are ignored — feeds arrive over
	// HTTP.
	Bundle platform.Bundle
	// Shards is the number of independent store/journal lanes the ingest
	// path commits through (default 1). A data directory is bound to its
	// shard count at creation; reopening with a different count is
	// refused.
	Shards int
	// Retention, when positive, evicts events that ended more than this
	// (up to 1.25× by quantum) before the latest event Start in their
	// shard. Eviction costs O(evicted). It bounds memory, not the journal:
	// recovery replays every journaled batch and re-evicts on the way.
	Retention time.Duration
	// MaxInflight bounds each shard's ingest queue (default 64 batches);
	// when an involved shard's queue is full, ingest answers 429.
	MaxInflight int
	// RequestTimeout bounds one request's wait for the commit pipeline
	// (default 60s).
	RequestTimeout time.Duration
	// LegacyParsers forces the collector's reference string parsers
	// instead of the zero-copy fast path (an escape hatch; the two are
	// parity-tested byte-identical).
	LegacyParsers bool
	// Debug mounts the expvar/pprof debug handlers under /debug/ on the
	// main API address — the single-port deployment; a dedicated metrics
	// listener (obs.ServeDebug) is the alternative.
	Debug bool
	// ReplicaOf, when set, opens this node as a live read replica of the
	// primary at that base URL (e.g. http://host:9090): it replays the
	// primary's merged journal stream, serves the read API continuously,
	// and redirects writes there. POST /v1/replication/promote turns it
	// into a primary.
	ReplicaOf string
	// ReplicaPoll is the journal stream's file-tail poll cadence
	// (default 50ms).
	ReplicaPoll time.Duration
}

func (c *Config) defaults() {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
}

// task is one validated ingest request handed to the dispatcher.
type task struct {
	kind   byte
	source string
	lines  []byte
	events []event.Instance
	raw    []byte // journal body for ingestlog.Events/ingestlog.EventsWire
}

type taskResult struct {
	status     int
	resp       IngestResponse
	err        error
	retryAfter int // seconds, set on 429
}

// shard is one lane of the parallel commit pipeline: a store shard, its
// slice of the ingest journal, and the bounded queue its applier
// goroutine drains (a replica has no appliers; its journal stream apply
// is the only writer).
type shard struct {
	idx   int
	st    *store.Memory
	jour  *wal.Journal
	queue chan shardTask
	done  chan struct{}
}

// Server is an open diagnosis service.
type Server struct {
	cfg    Config
	topo   *netmodel.Topology
	shards []*shard
	st     *store.Sharded
	coll   *collector.Collector

	// dispatchMu serializes batch admission: sequence numbering, ID block
	// allocation, shard routing, and queue placement. Feeds and finalize
	// apply inline under it (they read and mutate collector state), so it
	// also serializes every collector write and every routing change.
	dispatchMu sync.Mutex
	seq        int
	routeCache map[locus.Location]int

	// The finisher joins shard completions back into sequence order:
	// batches enter finishQ at dispatch, and the finisher replies to each
	// after its shards commit, running the streaming processors over the
	// stored events in dispatch order so responses are byte-identical for
	// any shard count.
	finishQ     chan *batch
	finishDone  chan struct{}
	finishMu    sync.Mutex
	finishCond  *sync.Cond
	finishedSeq int

	// mu guards the serving-phase artifacts (finalized flag, view,
	// engines, processors): written at finalize, read by handlers and the
	// finisher.
	mu        sync.RWMutex
	finalized bool
	view      *netstate.View
	engines   map[string]*engine.Engine
	traced    map[string]*engine.Engine // tracing twins of engines
	procs     map[string]*realtime.Processor

	// roll holds the Result Browser's incremental aggregates; hub fans
	// streaming diagnoses out to SSE clients. Both exist from Open on.
	roll *rollup.Rollup
	hub  *sseHub

	// Replication (DESIGN.md §16). Primary side: bootID names this
	// incarnation, sealer feeds the stream merge's watermark, replReg
	// tracks followers, replSrc serves the journal stream. Follower side:
	// follower is non-nil on a read replica, and promoted, once set, is
	// the post-failover primary every request delegates to.
	bootID   string
	sealer   *sealer
	replReg  *replica.Registry
	replSrc  *replica.Source
	follower *followerState
	promoted atomic.Pointer[promotedNode]

	closing  chan struct{}
	httpSrv  *http.Server
	recovery RecoveryInfo
}

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// Batches is how many journaled ingest batches were replayed.
	Batches int
	// Finalized reports whether the recovered service was already past
	// finalize.
	Finalized bool
	// Events is the recovered store's live event count.
	Events int
	// Shards is the shard count the data directory is bound to.
	Shards int
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// shardDir returns shard i's state directory: the data dir itself for a
// single-shard deployment (the pre-sharding layout), shard-<i>/ under it
// otherwise.
func shardDir(dataDir string, n, i int) string {
	if n == 1 {
		return dataDir
	}
	return filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
}

// checkShardMarker binds the data directory to its shard count: the
// journals' sequence interleave and per-shard event placement are
// functions of N, so reopening with a different N would replay into the
// wrong shards. Pre-sharding directories (a root-level journal, no
// marker) are adopted as single-shard only — stamping one with n>1
// would orphan its root-level state under the shard-<i>/ layout.
func checkShardMarker(dataDir string, n int) error {
	path := filepath.Join(dataDir, "SHARDS")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if n != 1 && legacyLayout(dataDir) {
			return fmt.Errorf("server: data dir %s holds a pre-sharding single-shard layout, opened with %d shards (resharding is not supported)",
				dataDir, n)
		}
		return os.WriteFile(path, []byte(strconv.Itoa(n)+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	have, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil {
		return fmt.Errorf("server: unreadable shard marker %s: %v", path, err)
	}
	if have != n {
		return fmt.Errorf("server: data dir %s holds %d shards, opened with %d (resharding is not supported)",
			dataDir, have, n)
	}
	return nil
}

// legacyLayout reports whether dataDir carries pre-sharding state at its
// root: an ingest journal.
func legacyLayout(dataDir string) bool {
	_, err := os.Stat(journalPath(dataDir))
	return err == nil
}

// Open recovers (or initializes) the service under cfg.DataDir. A
// primary and a read replica are built by the same path — the merged
// shard journals replay into the store the service then runs on — and
// differ only in what starts afterwards: a primary starts its appliers,
// finisher and replication source, a replica its journal stream client.
func Open(cfg Config) (*Server, error) {
	cfg.defaults()
	n := cfg.Shards
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	var fs *followerState
	if cfg.ReplicaOf != "" {
		var err error
		if fs, err = newFollowerState(cfg); err != nil {
			return nil, err
		}
	}
	if err := checkShardMarker(cfg.DataDir, n); err != nil {
		return nil, err
	}
	topo, err := conf.Parse(cfg.Bundle.Configs, cfg.Bundle.Inventory)
	if err != nil {
		return nil, fmt.Errorf("server: config archive: %v", err)
	}
	for i := 0; i < n; i++ {
		dir := shardDir(cfg.DataDir, n, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Event-WAL segments and snapshots left by older versions hold
		// only data derived from the journal, and nothing reads them.
		for _, sub := range []string{"wal", "snap"} {
			if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
				return nil, err
			}
		}
	}
	rep, err := replayJournals(cfg, topo)
	if err != nil {
		return nil, err
	}

	// Until the pipeline goroutines take ownership at the very end, every
	// open journal is ours: close them all on any error path.
	shards := make([]*shard, n)
	opened := false
	defer func() {
		if opened {
			return
		}
		for _, sh := range shards {
			if sh != nil {
				sh.jour.Close() //nolint:errcheck // being discarded
			}
		}
	}()
	for i := range shards {
		jour, err := wal.OpenJournal(journalPath(shardDir(cfg.DataDir, n, i)))
		if err != nil {
			return nil, err
		}
		shards[i] = &shard{
			idx: i, st: rep.shards[i], jour: jour,
			queue: make(chan shardTask, cfg.MaxInflight),
			done:  make(chan struct{}),
		}
	}

	s := &Server{
		cfg: cfg, topo: topo, shards: shards, st: rep.scratch, coll: rep.coll,
		roll:        rollup.New(rollup.Config{}),
		hub:         newSSEHub(),
		seq:         rep.maxSeq + 1,
		routeCache:  map[locus.Location]int{},
		finishQ:     make(chan *batch, n*cfg.MaxInflight+n+1),
		finishDone:  make(chan struct{}),
		finishedSeq: rep.maxSeq,
		follower:    fs,
		closing:     make(chan struct{}),
		recovery: RecoveryInfo{
			Batches: rep.batches, Finalized: rep.finalized,
			Events: rep.scratch.Len(), Shards: n,
		},
	}
	s.finishCond = sync.NewCond(&s.finishMu)
	// The Result Browser rollups: seed the trend bins from the replayed
	// store (replay ran before any hook existed), then track every future
	// append and eviction incrementally. Cause counters are seeded by
	// installServing once engines exist.
	s.roll.SeedEvents(s.st)
	s.st.OnAppend(s.roll.ObserveEvent)
	s.st.OnEvict(s.roll.EvictEvents)
	if rep.finalized {
		if err := s.installServing(true); err != nil {
			return nil, err
		}
	}
	mRecovered.Add(int64(rep.batches))
	opened = true
	if fs != nil {
		fs.appliedSeq.Store(int64(rep.maxSeq))
		mReplSeq.Set(int64(rep.maxSeq))
		s.startFollowerClient()
		return s, nil
	}
	s.initReplicationSource(rep.maxSeq)
	for i := range shards {
		go s.applier(shards[i])
	}
	go s.finisher()
	return s, nil
}

// Recovery reports what Open reconstructed.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Store exposes the authoritative event store (tests, CLI wiring).
func (s *Server) Store() store.Store { return s.st }

// replayResult is what replayJournals rebuilt.
type replayResult struct {
	coll      *collector.Collector
	shards    []*store.Memory
	scratch   *store.Sharded
	finalized bool
	batches   int
	maxSeq    int
}

// latticeRoute builds the post-finalize location→shard routing function:
// conversion-lattice components co-shard, everything else spreads by
// hash of its own key.
func latticeRoute(view *netstate.View, n int) func(locus.Location) int {
	m := netstate.BuildShardMap(view)
	return func(loc locus.Location) int { return m.Shard(loc, n) }
}

// replayJournals rebuilds the pipeline state recorded across all shard
// journals into a fresh collector + sharded store: the records stream
// merged in global sequence order, so dense ID allocation and shard
// placement replay exactly as the original dispatch produced them.
func replayJournals(cfg Config, topo *netmodel.Topology) (replayResult, error) {
	n := cfg.Shards
	rep := replayResult{maxSeq: -1, shards: make([]*store.Memory, n)}
	for i := range rep.shards {
		rep.shards[i] = store.New()
		if cfg.Retention > 0 {
			rep.shards[i].SetRetention(cfg.Retention)
		}
	}
	rep.scratch = store.NewShardedOf(rep.shards, store.HashRoute(n))
	c := collector.New(topo, rep.scratch, cfg.Bundle.Start.Year())
	c.LegacyParsers = cfg.LegacyParsers
	c.WindowStart = cfg.Bundle.Start
	c.WindowEnd = cfg.Bundle.Start.Add(cfg.Bundle.Duration)
	rep.coll = c

	paths := make([]string, n)
	for i := range paths {
		paths[i] = journalPath(shardDir(cfg.DataDir, n, i))
	}
	err := ingestlog.Replay(paths, func(_ int, r ingestlog.Record) error {
		rep.batches++
		rep.maxSeq = r.Seq
		switch r.Kind {
		case ingestlog.Feed:
			// The original run journaled this batch before rejecting it
			// with the same deterministic parse error; state after the
			// partial ingest is identical either way.
			c.Ingest(r.Source, bytes.NewReader(r.Body)) //nolint:errcheck // see above
		case ingestlog.Finalize:
			if err := c.Finalize(); err != nil {
				return fmt.Errorf("finalize: %v", err)
			}
			cdn.MaterializeEgressChanges(c, cfg.Bundle.CDN, c.WindowStart, c.WindowEnd)
			view := netstate.NewView(topo, c.OSPF, c.BGP)
			cdn.Register(view, cfg.Bundle.CDN)
			rep.scratch.SetRoute(latticeRoute(view, n))
			rep.finalized = true
		default:
			evs, err := recordEvents(r)
			if err != nil {
				return err
			}
			for i := range evs {
				rep.scratch.Add(evs[i])
			}
		}
		return nil
	})
	if err != nil {
		return rep, fmt.Errorf("server: journal replay: %v", err)
	}
	return rep, nil
}

// recordEvents decodes the normalized events an event-batch journal
// record carries, in batch order.
func recordEvents(r ingestlog.Record) ([]event.Instance, error) {
	switch r.Kind {
	case ingestlog.Events:
		var evs []EventJSON
		if err := json.Unmarshal(r.Body, &evs); err != nil {
			return nil, fmt.Errorf("journaled event batch: %v", err)
		}
		return decodeEvents(evs)
	case ingestlog.EventsWire:
		b, err := wire.Decode(r.Body)
		if err != nil {
			return nil, fmt.Errorf("journaled event batch: %v", err)
		}
		if b.Kind != wire.KindEvents {
			return nil, fmt.Errorf("journaled event batch: wire kind %d, want events", b.Kind)
		}
		return b.Events, nil
	}
	return nil, fmt.Errorf("unknown journal record kind %d", r.Kind)
}

// installServing transitions to the serving phase: routing view, CDN
// registration, lattice-aware shard routing, per-application engines and
// streaming processors. With rebuildTails (recovery), each processor
// re-observes the tail of the stored stream so symptoms still inside
// their grace window at the crash stay pending instead of vanishing;
// their already-served diagnoses are discarded. Runs under dispatchMu
// (finalize) or before concurrency starts (Open).
func (s *Server) installServing(rebuildTails bool) error {
	view := netstate.NewView(s.topo, s.coll.OSPF, s.coll.BGP)
	cdn.Register(view, s.cfg.Bundle.CDN)
	// From here on, new events co-shard with everything their locations
	// convert to through the lattice. Events stored under the bootstrap
	// hash routing stay where they are — reads scatter-gather, so
	// placement is a locality property, never a correctness one.
	s.st.SetRoute(latticeRoute(view, len(s.shards)))
	s.routeCache = map[locus.Location]int{}
	engines := map[string]*engine.Engine{}
	traced := map[string]*engine.Engine{}
	procs := map[string]*realtime.Processor{}
	for _, a := range appSpecs() {
		eng, err := a.newEngine(s.st, view)
		if err != nil {
			return fmt.Errorf("server: %s engine: %v", a.name, err)
		}
		engines[a.name] = eng
		// A tracing twin rather than a per-request copy: Engine embeds an
		// atomic cache pointer and must not be copied.
		teng, err := a.newEngine(s.st, view)
		if err != nil {
			return fmt.Errorf("server: %s engine: %v", a.name, err)
		}
		teng.Tracing = true
		traced[a.name] = teng
		_, g, err := a.build()
		if err != nil {
			return fmt.Errorf("server: %s graph: %v", a.name, err)
		}
		p := realtime.NewOnStore(s.st, view, g, realtime.GraceFor(g, maxEventDuration))
		if rebuildTails {
			rebuildTail(s.st, p)
		}
		procs[a.name] = p
	}
	// Seed the breakdown rollups: one full-evidence diagnosis of every
	// stored root symptom per application, so the Result Browser's
	// invariant (breakdown ≡ batch browser.Breakdown over the live
	// store) holds from the first request — including right after a
	// crash recovery, where this re-derives the identical counters
	// deterministically. Symptoms still pending in a processor are
	// counted too; their eventual grace-elapsed drain re-counts them
	// with the (by then unchanged) full evidence.
	for _, a := range appSpecs() {
		for _, d := range engines[a.name].DiagnoseAllParallel(0) {
			s.roll.CountDiagnosis(a.name, d)
		}
	}
	// Fan live diagnoses out to the rollup counters, the recent ring,
	// and the SSE stream. Installed after the tail rebuild so its
	// replayed emissions (already served before the crash) don't reach
	// the ring.
	for _, a := range appSpecs() {
		name := a.name
		procs[name].OnDiagnosis = func(d engine.Diagnosis) {
			seq := s.roll.AddDiagnosis(name, d)
			if s.hub.active() {
				s.hub.publish(seq, streamFrame(rollup.Entry{Seq: seq, App: name, D: d}))
			}
		}
	}
	s.mu.Lock()
	s.finalized, s.view, s.engines, s.traced, s.procs = true, view, engines, traced, procs
	s.mu.Unlock()
	return nil
}

// rebuildTail replays the stored stream's tail (availability order)
// through a fresh processor: events past the span's end minus the grace
// window reconstruct the stream clock and the pending-symptom queue.
// Emitted diagnoses are dropped — anything whose grace elapsed before
// the crash was already served (streamed diagnoses are at-most-once; the
// authoritative answer is always /v1/diagnose).
func rebuildTail(st store.Store, p *realtime.Processor) {
	_, last, ok := st.Span()
	if !ok {
		return
	}
	cut := last.Add(-p.Grace - maxEventDuration)
	var tail []*event.Instance
	for _, name := range st.Names() {
		for _, in := range st.All(name) {
			if !in.End.Before(cut) {
				tail = append(tail, in)
			}
		}
	}
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].End.Before(tail[j].End) })
	for _, in := range tail {
		p.ObserveStored(in)
	}
}

func errResult(status int, format string, args ...any) taskResult {
	return taskResult{status: status, err: fmt.Errorf(format, args...)}
}

func (s *Server) isFinalized() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.finalized
}

// queueTotals sums depth and capacity across all shard queues (len/cap
// on channels are safe concurrently).
func (s *Server) queueTotals() (depth, capacity int) {
	for _, sh := range s.shards {
		depth += len(sh.queue)
		capacity += cap(sh.queue)
	}
	return depth, capacity
}
