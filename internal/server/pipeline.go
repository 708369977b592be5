// Package server turns the G-RCA pipeline into a durable, network-facing
// diagnosis service: the paper's platform ran as a shared system that
// applications fed continuously and queried on demand (§II), and this
// package is that shape — an HTTP/JSON API over a WAL-backed event store.
//
// # Durability model
//
// The store is split into N independent shards (Config.Shards), each a
// complete lane of the write path with its own lock, WAL segment
// directory, snapshot directory, ingest journal, and applier goroutine.
// Two append-only structures per shard carry the state:
//
//   - The event WAL (internal/wal): every normalized instance added to
//     the shard, with snapshots and compaction. It recovers the shard
//     byte-identically and fast.
//   - The ingest journal (journal.log): accepted ingest batches — raw
//     feed lines or normalized-event bodies — plus the finalize marker.
//     Every record carries the batch's global sequence number, so the
//     union of all shard journals, sorted by sequence, is the total
//     ingest history in commit order. The collector's parse state
//     (routing simulations, pairing buffers, rolling baselines) is a
//     function of raw input, not of normalized events, so restart
//     recovery replays this merged journal through a fresh collector.
//
// A batch's journal append (fsynced, on the one shard that owns its
// record) is its commit point; the per-shard WAL commits follow it. On
// startup all shards are reconciled: the merged journal replays into a
// scratch sharded pipeline, and each scratch shard's digest must equal
// the corresponding WAL-recovered shard's. A mismatch — a crash between
// journal fsync and WAL commit, a lost shard directory, or corruption —
// rebuilds that shard's WAL from the journal replay, so recovery always
// converges on the journals' committed batch set. See DESIGN.md §15 for
// the ID-renumbering caveat when unacknowledged batches are torn out of
// the middle of the sequence.
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
// goroutines drain their queues in commit groups (journal fsync, store
// inserts, WAL commit — each amortized across every batch waiting), and
// a single finisher goroutine joins the shards' completions back into
// sequence order to run the streaming processors and reply — so
// responses are byte-identical for every shard count. Reads (diagnose,
// events, stats) bypass the queues and scatter-gather the shards.
package server

import (
	"bytes"
	"encoding/binary"
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
	mRebuilt    = obs.GetCounter("server.recovery.wal.rebuilt")
)

// Journal record kinds. A record is uvarint seq | kind |
// uvarint len(source) | source | body: raw feed lines for recFeed, the
// JSON event array for recEvents, a wire.KindEvents batch (verbatim
// request bytes) for recEventsWire, empty for recFinalize. seq is the
// batch's global dispatch sequence — records of different batches live
// in different shard journals, and sorting the union by seq recovers
// the total commit order.
const (
	recFeed       = 1
	recFinalize   = 2
	recEvents     = 3
	recEventsWire = 4
)

func encodeRecord(seq int, kind byte, source string, body []byte) []byte {
	out := make([]byte, 0, 10+1+10+len(source)+len(body))
	out = binary.AppendUvarint(out, uint64(seq))
	out = append(out, kind)
	out = binary.AppendUvarint(out, uint64(len(source)))
	out = append(out, source...)
	return append(out, body...)
}

func decodeJournalRecord(p []byte) (seq int, kind byte, source string, body []byte, err error) {
	sq, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, 0, "", nil, fmt.Errorf("server: truncated journal record seq")
	}
	p = p[sz:]
	if len(p) < 1 {
		return 0, 0, "", nil, fmt.Errorf("server: empty journal record")
	}
	kind, p = p[0], p[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return 0, 0, "", nil, fmt.Errorf("server: truncated journal record source")
	}
	return int(sq), kind, string(p[sz : sz+int(n)]), p[sz+int(n):], nil
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
	// DataDir holds the WAL, snapshots, and ingest journal — per shard,
	// under shard-<i>/ when Shards > 1.
	DataDir string
	// Bundle supplies the configuration archive and manifest (collection
	// window, CDN deployment). Its Feeds are ignored — feeds arrive over
	// HTTP.
	Bundle platform.Bundle
	// Shards is the number of independent store/WAL/journal lanes the
	// ingest path commits through (default 1). A data directory is bound
	// to its shard count at creation; reopening with a different count is
	// refused.
	Shards int
	// Fsync is the WAL durability policy (default batch). The ingest
	// journal always fsyncs per commit group; this tunes only the event
	// WAL.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the WAL background sync period under interval
	// policy.
	FsyncInterval time.Duration
	// SnapshotEvery auto-snapshots a shard after that many WAL records.
	SnapshotEvery int
	// Retention, when positive, evicts events that ended more than this
	// (up to 1.25× by quantum) before the latest event Start in their
	// shard. Eviction costs O(evicted) and never snapshots: snapshots come
	// from SnapshotEvery and shutdown only, which is what bounds the data
	// directory.
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
	// ReplayWorkers is the WAL's recovery decode parallelism (0 =
	// GOMAXPROCS).
	ReplayWorkers int
	// Debug mounts the expvar/pprof debug handlers under /debug/ on the
	// main API address — the single-port deployment; a dedicated metrics
	// listener (obs.ServeDebug) is the alternative.
	Debug bool
	// ReplicaOf, when set, opens this node as a live read replica of the
	// primary at that base URL (e.g. http://host:9090): it bootstraps
	// from the primary's replication streams, serves the read API
	// continuously, and redirects writes there. POST
	// /v1/replication/promote turns it into a primary.
	ReplicaOf string
	// ReplicaGrace is how long WAL compaction holds segments for a
	// recently disconnected follower (default 5m).
	ReplicaGrace time.Duration
	// ReplicaPoll is the replication streams' file-tail poll cadence
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
	raw    []byte // journal body for recEvents/recEventsWire
}

type taskResult struct {
	status     int
	resp       IngestResponse
	err        error
	retryAfter int // seconds, set on 429
}

// shard is one lane of the parallel commit pipeline: a store shard, its
// WAL, its slice of the ingest journal, and the bounded queue its
// applier goroutine drains.
type shard struct {
	idx   int
	st    *store.Memory
	log   *wal.Log
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
	// tracks followers (and pins compaction), replSrc serves the streams.
	// Follower side: follower is non-nil on a read replica, and promoted,
	// once set, is the post-failover primary every request delegates to.
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
	// WALRebuilt is true when at least one shard's WAL disagreed with the
	// merged journal (crash between journal fsync and WAL commit, a lost
	// shard directory, or corruption) and was rebuilt from the journal
	// replay.
	WALRebuilt bool
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
// wrong shards. Pre-sharding directories (journal or WAL present, no
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
// root: an ingest journal or a WAL segment directory.
func legacyLayout(dataDir string) bool {
	if _, err := os.Stat(journalPath(dataDir)); err == nil {
		return true
	}
	if _, err := os.Stat(filepath.Join(dataDir, "wal")); err == nil {
		return true
	}
	return false
}

// Open recovers (or initializes) the service under cfg.DataDir.
func Open(cfg Config) (*Server, error) {
	cfg.defaults()
	if cfg.ReplicaOf != "" {
		return openFollower(cfg)
	}
	n := cfg.Shards
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	if err := checkShardMarker(cfg.DataDir, n); err != nil {
		return nil, err
	}
	topo, err := conf.Parse(cfg.Bundle.Configs, cfg.Bundle.Inventory)
	if err != nil {
		return nil, fmt.Errorf("server: config archive: %v", err)
	}
	walOpts := wal.Options{
		Fsync: cfg.Fsync, FsyncInterval: cfg.FsyncInterval,
		SnapshotEvery: cfg.SnapshotEvery, Retention: cfg.Retention,
		ReplayWorkers: cfg.ReplayWorkers,
	}

	// Recover every shard's WAL in parallel; a shard that fails here is
	// rebuilt from the journal replay below.
	type walState struct {
		log *wal.Log
		st  *store.Memory
		err error
	}
	ws := make([]walState, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, st, _, err := wal.Open(shardDir(cfg.DataDir, n, i), walOpts)
			ws[i] = walState{l, st, err}
		}(i)
	}
	wg.Wait()
	// Until the pipeline goroutines take ownership at the very end, every
	// open log and journal is ours: close them all on any error path so a
	// failed Open leaks neither file handles nor fsync goroutines.
	var shards []*shard
	opened := false
	defer func() {
		if opened {
			return
		}
		for i := range ws {
			if ws[i].log != nil {
				ws[i].log.Close() //nolint:errcheck // being discarded
			}
		}
		for _, sh := range shards {
			if sh != nil {
				sh.jour.Close() //nolint:errcheck // being discarded
			}
		}
	}()

	// Replay the merged ingest journals through a scratch pipeline to
	// rebuild collector state; its per-shard stores double as the
	// cross-check against the WAL-recovered shards.
	rep, err := replayJournals(cfg, topo)
	if err != nil {
		return nil, err
	}
	rebuilt := false
	for i := range ws {
		if ws[i].err == nil && wal.StoreDigest(ws[i].st) == wal.StoreDigest(rep.shards[i]) {
			continue
		}
		// This shard's WAL trails or disagrees with the journals: rebuild
		// it from the journal replay, which is the batch-level committed
		// prefix.
		if ws[i].log != nil {
			ws[i].log.Close() //nolint:errcheck // being discarded
			ws[i].log = nil
		}
		dir := shardDir(cfg.DataDir, n, i)
		for _, sub := range []string{"wal", "snap"} {
			if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
				return nil, err
			}
		}
		l, st, _, err := wal.Open(dir, walOpts)
		if err != nil {
			return nil, err
		}
		ws[i] = walState{l, st, nil}
		base, next, ins := rep.shards[i].Dump()
		if err := st.Restore(base, next, ins); err != nil {
			return nil, fmt.Errorf("server: rebuilding shard %d from journal: %v", i, err)
		}
		if err := l.Snapshot(); err != nil {
			return nil, err
		}
		rebuilt = true
		mRebuilt.Inc()
	}
	mRecovered.Add(int64(rep.batches))

	mems := make([]*store.Memory, n)
	for i := range ws {
		mems[i] = ws[i].st
	}
	st := store.NewShardedOf(mems, store.HashRoute(n))
	st.SetNext(rep.scratch.NextID())

	// The scratch collector carries the journals' parse state; point it
	// at the authoritative store for all future ingest.
	coll := rep.coll
	coll.Store = st

	shards = make([]*shard, n)
	for i := range shards {
		jour, err := wal.OpenJournal(journalPath(shardDir(cfg.DataDir, n, i)))
		if err != nil {
			return nil, err
		}
		shards[i] = &shard{
			idx: i, st: mems[i], log: ws[i].log, jour: jour,
			queue: make(chan shardTask, cfg.MaxInflight),
			done:  make(chan struct{}),
		}
	}

	s := &Server{
		cfg: cfg, topo: topo, shards: shards, st: st, coll: coll,
		roll:        rollup.New(rollup.Config{}),
		hub:         newSSEHub(),
		seq:         rep.maxSeq + 1,
		routeCache:  map[locus.Location]int{},
		finishQ:     make(chan *batch, n*cfg.MaxInflight+n+1),
		finishDone:  make(chan struct{}),
		finishedSeq: rep.maxSeq,
		closing:     make(chan struct{}),
		recovery: RecoveryInfo{
			Batches: rep.batches, Finalized: rep.finalized,
			Events: st.Len(), Shards: n, WALRebuilt: rebuilt,
		},
	}
	s.finishCond = sync.NewCond(&s.finishMu)
	// The Result Browser rollups: seed the trend bins from the recovered
	// store (Restore bypasses the append hook), then track every future
	// append and eviction incrementally. Cause counters are seeded by
	// installServing once engines exist.
	s.roll.SeedEvents(st)
	st.OnAppend(s.roll.ObserveEvent)
	st.OnEvict(s.roll.EvictEvents)
	if rep.finalized {
		if err := s.installServing(true); err != nil {
			return nil, err
		}
	}
	s.initReplicationSource(rep)
	opened = true
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
// journals into a fresh collector + sharded store: the records are
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

	type jrec struct {
		seq    int
		kind   byte
		source string
		body   []byte
	}
	var recs []jrec
	for i := 0; i < n; i++ {
		_, err := wal.ReplayJournal(journalPath(shardDir(cfg.DataDir, n, i)), func(p []byte) error {
			seq, kind, source, body, err := decodeJournalRecord(p)
			if err != nil {
				return err
			}
			recs = append(recs, jrec{seq, kind, source, body})
			return nil
		})
		if err != nil {
			return rep, fmt.Errorf("server: journal replay: %v", err)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })

	for _, r := range recs {
		rep.batches++
		if r.seq > rep.maxSeq {
			rep.maxSeq = r.seq
		}
		switch r.kind {
		case recFeed:
			if err := c.Ingest(r.source, bytes.NewReader(r.body)); err != nil {
				// The original run journaled this batch before rejecting it
				// with the same deterministic parse error; state after the
				// partial ingest is identical either way.
				continue
			}
		case recFinalize:
			if err := c.Finalize(); err != nil {
				return rep, fmt.Errorf("server: journal replay: finalize: %v", err)
			}
			cdn.MaterializeEgressChanges(c, cfg.Bundle.CDN, c.WindowStart, c.WindowEnd)
			view := netstate.NewView(topo, c.OSPF, c.BGP)
			cdn.Register(view, cfg.Bundle.CDN)
			rep.scratch.SetRoute(latticeRoute(view, n))
			rep.finalized = true
		case recEvents:
			var evs []EventJSON
			if err := json.Unmarshal(r.body, &evs); err != nil {
				return rep, fmt.Errorf("server: journaled event batch: %v", err)
			}
			for _, ej := range evs {
				in, err := ej.instance()
				if err != nil {
					return rep, fmt.Errorf("server: journaled event batch: %v", err)
				}
				rep.scratch.Add(in)
			}
		case recEventsWire:
			b, err := wire.Decode(r.body)
			if err != nil {
				return rep, fmt.Errorf("server: journaled event batch: %v", err)
			}
			if b.Kind != wire.KindEvents {
				return rep, fmt.Errorf("server: journaled event batch: wire kind %d, want events", b.Kind)
			}
			for i := range b.Events {
				rep.scratch.Add(b.Events[i])
			}
		default:
			return rep, fmt.Errorf("server: unknown journal record kind %d", r.kind)
		}
	}
	return rep, nil
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
