package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/event"
	"grca/internal/ingestlog"
	"grca/internal/obs"
	"grca/internal/replica"
	"grca/internal/wal"
)

// followerState is the replica-only half of a Server: the journal
// stream client and the lag bookkeeping. The live store is the one the
// journal replay built at Open — the follower IS a recovery that never
// stops replaying.
type followerState struct {
	primary string // primary base URL, no trailing slash
	id      string // stable follower stream ID (REPLICA file)
	bootID  string // primary incarnation being replicated

	client *replica.Client

	appliedSeq atomic.Int64 // last journal sequence applied (and locally journaled)

	// sealed means the client is stopped and the local journals are
	// closed; sealOnce makes the seal idempotent between Promote and
	// Shutdown, and promoteOnce serializes promotion without holding any
	// lock across the reopen (which acquires the whole pipeline's lock
	// set — a mutex here would nest above all of them).
	sealed      atomic.Bool
	sealOnce    sync.Once
	sealErr     error
	promoting   atomic.Bool
	promoteOnce sync.Once
	promoteInfo PromoteInfo
	promoteErr  error

	mu        sync.Mutex
	hb        replica.Msg // last heartbeat
	hbAt      time.Time
	lastMsg   time.Time
	streamErr error
}

// promotedNode is the primary a promoted replica delegates to.
type promotedNode struct {
	srv  *Server
	h    http.Handler
	info PromoteInfo
}

// PromoteInfo is the promote endpoint's answer.
type PromoteInfo struct {
	Role string `json:"role"`
	// BootID is the promoted node's new primary incarnation.
	BootID string `json:"boot_id"`
	// AppliedSeq is the last stream sequence applied before the seal.
	AppliedSeq int `json:"applied_seq"`
	// Recovery is the reopen's replay report.
	Recovery RecoveryInfo `json:"recovery"`
	// Digests are the promoted store's per-shard digests.
	Digests []string `json:"digests"`
}

// fetchPrimaryMeta fetches the primary's rendezvous document, retrying
// briefly so a follower and its primary can start together.
func fetchPrimaryMeta(base string) (ReplicationMetaJSON, error) {
	var meta ReplicationMetaJSON
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		resp, err := http.Get(base + "/v1/replication/meta")
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close() //nolint:errcheck // read side
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
			continue
		}
		if err := json.Unmarshal(body, &meta); err != nil {
			lastErr = err
			continue
		}
		if meta.BootID == "" || meta.Shards < 1 {
			lastErr = fmt.Errorf("malformed meta document")
			continue
		}
		return meta, nil
	}
	return meta, fmt.Errorf("server: primary %s: %v", base, lastErr)
}

// prepareReplicaState reconciles the data dir with the primary
// incarnation: same boot ID resumes the shipped journals, a different
// one wipes them (sequences may have been renumbered; shipped history
// can only be replaced). Returns this follower's stable stream ID.
func prepareReplicaState(dataDir string, n int, bootID string) (string, error) {
	path := replicaFile(dataDir)
	id := ""
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) >= 2 {
			id = strings.TrimSpace(lines[1])
			if strings.TrimSpace(lines[0]) == bootID {
				return id, nil
			}
		}
		// Boot ID changed (or the marker is malformed): drop every shard's
		// shipped journal and resync from scratch.
		for i := 0; i < n; i++ {
			if err := os.Remove(journalPath(shardDir(dataDir, n, i))); err != nil && !os.IsNotExist(err) {
				return "", err
			}
		}
	case !os.IsNotExist(err):
		return "", err
	}
	if id == "" {
		id = "replica-" + newBootID()
	}
	if err := os.WriteFile(path, []byte(bootID+"\n"+id+"\n"), 0o644); err != nil {
		return "", err
	}
	return id, nil
}

// newFollowerState binds a replica's data dir to the primary at
// cfg.ReplicaOf: fetch its rendezvous document, check the shard count,
// and resync the local journals if the primary's incarnation changed.
func newFollowerState(cfg Config) (*followerState, error) {
	primary := strings.TrimRight(cfg.ReplicaOf, "/")
	meta, err := fetchPrimaryMeta(primary)
	if err != nil {
		return nil, err
	}
	if meta.Shards != cfg.Shards {
		return nil, fmt.Errorf("server: primary %s runs %d shards, replica configured with %d", primary, meta.Shards, cfg.Shards)
	}
	id, err := prepareReplicaState(cfg.DataDir, cfg.Shards, meta.BootID)
	if err != nil {
		return nil, err
	}
	return &followerState{primary: primary, id: id, bootID: meta.BootID}, nil
}

// startFollowerClient launches the journal stream client.
func (s *Server) startFollowerClient() {
	fs := s.follower
	fs.client = &replica.Client{
		URL: func(from int) string {
			return fmt.Sprintf("%s/v1/replication/journal?id=%s&from=%d",
				fs.primary, url.QueryEscape(fs.id), from)
		},
		From:    func() int { return int(fs.appliedSeq.Load()) },
		Handle:  s.handleJournalMsg,
		OnState: fs.noteState,
	}
	fs.client.Start()
}

// checkHello validates the stream's opening frame against the
// incarnation this follower is bound to. Any mismatch is fatal —
// reconnecting into the same primary cannot fix it; the operator
// restarts the replica, which resyncs via prepareReplicaState.
func (fs *followerState) checkHello(m replica.Msg, shards int) error {
	if m.Ver != replica.ProtocolVersion {
		return fmt.Errorf("primary speaks protocol %d, this replica %d", m.Ver, replica.ProtocolVersion)
	}
	if m.BootID != fs.bootID {
		return fmt.Errorf("primary boot ID changed (%s -> %s): restart the replica to resync", fs.bootID, m.BootID)
	}
	if m.Shards != shards {
		return fmt.Errorf("primary reports %d shards, replica runs %d", m.Shards, shards)
	}
	if m.Stream != replica.StreamJournal {
		return fmt.Errorf("wrong stream kind %q", m.Stream)
	}
	return nil
}

// handleJournalMsg applies one journal-stream message. Runs on the
// journal client's goroutine — the follower's only writer to the live
// store and the local journals.
func (s *Server) handleJournalMsg(m replica.Msg) error {
	fs := s.follower
	switch m.Type {
	case replica.MsgHello:
		if err := fs.checkHello(m, len(s.shards)); err != nil {
			return replica.Fatal(err)
		}
	case replica.MsgJournalRec:
		if m.Shard >= len(s.shards) {
			return replica.Fatal(fmt.Errorf("journal record for shard %d of %d", m.Shard, len(s.shards)))
		}
		if err := s.applyJournalRecord(m.Shard, m.Rec); err != nil {
			return replica.Fatal(err)
		}
		fs.noteMsg()
	case replica.MsgHeartbeat:
		fs.noteHeartbeat(m)
		s.updateLag(m)
		s.syncFollowerJournals()
	case replica.MsgEOF:
		// The client loop already treats EOF as end-of-connection; seen
		// here only if the primary interleaves it oddly — ignore.
	default:
		return replica.Fatal(fmt.Errorf("unexpected message type %d on the journal stream", m.Type))
	}
	return nil
}

// applyJournalRecord journals one shipped record locally and applies it
// to the live pipeline — the same switch crash recovery's replay runs,
// incrementally, under dispatchMu so reads never see a half-applied
// batch.
func (s *Server) applyJournalRecord(shard int, rec []byte) error {
	r, err := ingestlog.Decode(rec)
	if err != nil {
		return err
	}
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	fs := s.follower
	if r.Seq <= int(fs.appliedSeq.Load()) {
		return nil // reconnect overlap: already journaled and applied
	}
	// Local journal first: the live store is rebuilt from the journals at
	// boot, so everything applied must be journaled (durability is async;
	// a torn tail just re-ships).
	if err := s.shards[shard].jour.AppendNoSync(rec); err != nil {
		return err
	}
	switch r.Kind {
	case ingestlog.Feed:
		// Parse errors are deterministic and already answered by the
		// primary; state after the partial ingest is identical either way.
		s.coll.Ingest(r.Source, bytes.NewReader(r.Body)) //nolint:errcheck // see above
	case ingestlog.Finalize:
		if res := s.applyFinalize(); res.err != nil {
			return res.err
		}
	default:
		evs, err := recordEvents(r)
		if err != nil {
			return err
		}
		stored := make([]*event.Instance, 0, len(evs))
		for i := range evs {
			stored = append(stored, s.st.Add(evs[i]))
		}
		s.observeStored(stored)
	}
	s.seq = r.Seq + 1
	fs.appliedSeq.Store(int64(r.Seq))
	mReplApplied.Inc()
	mReplSeq.Set(int64(r.Seq))
	return nil
}

func (fs *followerState) noteMsg() {
	fs.mu.Lock()
	fs.lastMsg = obs.Now()
	fs.mu.Unlock()
}

func (fs *followerState) noteHeartbeat(m replica.Msg) {
	fs.mu.Lock()
	fs.hb = m // JournalBytes is a fresh allocation, safe to retain
	fs.hbAt = obs.Now()
	fs.lastMsg = fs.hbAt
	fs.mu.Unlock()
}

// noteState records stream health transitions (Client.OnState).
func (fs *followerState) noteState(err error) {
	fs.mu.Lock()
	fs.streamErr = err
	fs.mu.Unlock()
}

// updateLag refreshes the follower lag gauge from a heartbeat: bytes of
// journal not yet shipped.
func (s *Server) updateLag(hb replica.Msg) {
	var lagBytes int64
	for i := range s.shards {
		if i >= len(hb.JournalBytes) {
			break
		}
		local := int64(0)
		if st, err := os.Stat(journalPath(shardDir(s.cfg.DataDir, len(s.shards), i))); err == nil {
			local = st.Size()
		}
		if d := hb.JournalBytes[i] - local; d > 0 {
			lagBytes += d
		}
	}
	mReplLagBytes.Set(lagBytes)
}

// syncFollowerJournals fsyncs the local journals at heartbeat cadence
// (shipped records are written without fsync on the apply path).
func (s *Server) syncFollowerJournals() {
	s.dispatchMu.Lock()
	defer s.dispatchMu.Unlock()
	if s.follower.isSealed() {
		return
	}
	for _, sh := range s.shards {
		sh.jour.Sync() //nolint:errcheck // advisory; the apply path surfaces real write errors
	}
}

func (fs *followerState) isSealed() bool { return fs.sealed.Load() }

// sealFollower stops the stream client and closes the local journals;
// after it returns no goroutine touches follower disk state.
// Idempotent (sealOnce); called by Promote and Shutdown.
func (s *Server) sealFollower() error {
	fs := s.follower
	fs.sealOnce.Do(func() {
		fs.client.Stop()
		fs.client.Wait()
		var err error
		s.dispatchMu.Lock() // exclude a final in-flight apply's journal write
		fs.sealed.Store(true)
		for _, sh := range s.shards {
			if e := sh.jour.Sync(); e != nil && err == nil {
				err = e
			}
			if e := sh.jour.Close(); e != nil && err == nil {
				err = e
			}
		}
		s.dispatchMu.Unlock()
		fs.sealErr = err
	})
	return fs.sealErr
}

// Promote turns this replica into a primary: seal the stream, then
// reopen the data directory exactly as a restarting primary would. The
// reopen replays the shipped journals, so the promoted store is by
// construction a clean single-node replay of the same journal history.
// The promoted server takes over request handling atomically; this
// server's handler delegates to it from then on.
func (s *Server) Promote() (PromoteInfo, error) {
	fs := s.follower
	if fs == nil {
		return PromoteInfo{}, fmt.Errorf("server: not a replica")
	}
	// Promotion runs exactly once; concurrent callers block on the Once
	// and share the stored outcome (a failed promotion is sticky — the
	// local state is suspect, restart the process to retry). No lock is
	// held across the reopen.
	fs.promoting.Store(true)
	fs.promoteOnce.Do(func() { fs.promoteInfo, fs.promoteErr = s.promote() })
	return fs.promoteInfo, fs.promoteErr
}

func (s *Server) promote() (PromoteInfo, error) {
	fs := s.follower
	if err := s.sealFollower(); err != nil {
		return PromoteInfo{}, err
	}
	if err := os.Remove(replicaFile(s.cfg.DataDir)); err != nil && !os.IsNotExist(err) {
		return PromoteInfo{}, err
	}
	cfg := s.cfg
	cfg.ReplicaOf = ""
	ps, err := Open(cfg)
	if err != nil {
		return PromoteInfo{}, fmt.Errorf("reopening as primary: %v", err)
	}
	info := PromoteInfo{
		Role:       "primary",
		BootID:     ps.bootID,
		AppliedSeq: int(fs.appliedSeq.Load()),
		Recovery:   ps.Recovery(),
	}
	for _, sh := range ps.shards {
		info.Digests = append(info.Digests, wal.StoreDigest(sh.st))
	}
	node := &promotedNode{srv: ps, h: ps.Handler(), info: info}
	s.promoted.Store(node)
	return info, nil
}

// shutdownFollower is Shutdown's replica path: seal the stream, close
// the processors, and shut the promoted primary down if one exists.
func (s *Server) shutdownFollower(ctx context.Context, err error) error {
	fs := s.follower
	if fs.promoting.Load() {
		// Wait out an in-flight promotion so the promoted server below
		// is visible for shutdown; the empty Do blocks until it returns.
		fs.promoteOnce.Do(func() {})
	}
	if e := s.sealFollower(); e != nil && err == nil {
		err = e
	}
	s.mu.RLock()
	procs := s.procs
	s.mu.RUnlock()
	for _, a := range appSpecs() {
		if p, ok := procs[a.name]; ok {
			p.Close()
		}
	}
	if node := s.promoted.Load(); node != nil {
		if e := node.srv.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// status renders /v1/replication/status for a replica.
func (fs *followerState) status(s *Server) ReplicationStatusJSON {
	fs.mu.Lock()
	hb, hbAt, lastMsg, serr := fs.hb, fs.hbAt, fs.lastMsg, fs.streamErr
	fs.mu.Unlock()
	applied := int(fs.appliedSeq.Load())
	st := ReplicationStatusJSON{
		Role:       "replica",
		BootID:     fs.bootID,
		Shards:     len(s.shards),
		Primary:    fs.primary,
		AppliedSeq: &applied,
	}
	if node := s.promoted.Load(); node != nil {
		// Promoted: report the new primary's identity through the old path.
		return ReplicationStatusJSON{
			Role:   "primary",
			BootID: node.info.BootID,
			Shards: len(s.shards),
		}
	}
	if serr != nil {
		st.StreamError = serr.Error()
	}
	if !lastMsg.IsZero() {
		st.LagSeconds = obs.Since(lastMsg).Seconds()
	}
	if !hbAt.IsZero() {
		sealed := hb.Sealed
		st.PrimarySealed = &sealed
	}
	n := len(s.shards)
	for i := 0; i < n; i++ {
		lag := ReplicaShardLag{
			Shard:           i,
			StreamConnected: serr == nil && !lastMsg.IsZero(),
		}
		if fi, err := os.Stat(journalPath(shardDir(s.cfg.DataDir, n, i))); err == nil {
			lag.JournalBytes = fi.Size()
		}
		if i < len(hb.JournalBytes) {
			lag.PrimaryJournal = hb.JournalBytes[i]
			if d := lag.PrimaryJournal - lag.JournalBytes; d > 0 {
				lag.LagBytes = d
			}
		}
		st.ShardLag = append(st.ShardLag, lag)
	}
	return st
}
