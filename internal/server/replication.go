package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"

	"grca/internal/obs"
	"grca/internal/replica"
)

// Replication: a primary tails its own ingest journals and streams them,
// merged in sequence order, to followers (internal/replica); a follower
// applies the merged journal stream through the same path crash
// recovery uses and serves the read API live. See DESIGN.md §16.

var (
	mReplApplied  = obs.GetCounter("replica.follower.applied.batches")
	mReplSeq      = obs.GetGauge("replica.follower.applied.seq")
	mReplLagBytes = obs.GetGauge("replica.follower.journal.lag.bytes")
)

// sealer tracks, per shard, the dispatch sequence numbers assigned to
// journal records that are not yet durably appended to that shard's
// journal file. Its watermark is what lets the replication source merge
// the shard journals into one totally-ordered stream while appliers
// commit concurrently: sealed[j] is a sequence such that no future
// append to shard j's journal will ever carry seq <= sealed[j], so a
// queued record with a lower sequence on another shard is safe to emit.
type sealer struct {
	mu      sync.Mutex
	pending [][]int // per shard: assigned, not yet durably journaled
	last    int     // highest sequence ever assigned
}

func newSealer(shards, last int) *sealer {
	return &sealer{pending: make([][]int, shards), last: last}
}

// assign marks seq as in flight toward shard's journal. Called under
// dispatchMu, before the batch is enqueued (or inline-appended), so the
// watermark can never run ahead of an assignment.
func (se *sealer) assign(shard, seq int) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.pending[shard] = append(se.pending[shard], seq)
	if seq > se.last {
		se.last = seq
	}
}

// done retires seq: its record is durably in shard's journal — or its
// append failed and the record will never appear, which seals past it
// just the same.
func (se *sealer) done(shard, seq int) {
	se.mu.Lock()
	defer se.mu.Unlock()
	p := se.pending[shard]
	for i := range p {
		if p[i] == seq {
			p[i] = p[len(p)-1]
			se.pending[shard] = p[:len(p)-1]
			return
		}
	}
}

// sealed returns the per-shard watermarks. A shard with in-flight
// records is sealed just below its lowest one; an idle shard is sealed
// at the highest sequence ever assigned (anything later is higher).
func (se *sealer) sealed() []int {
	se.mu.Lock()
	defer se.mu.Unlock()
	out := make([]int, len(se.pending))
	for j, p := range se.pending {
		if len(p) == 0 {
			out[j] = se.last
			continue
		}
		lo := p[0]
		for _, s := range p[1:] {
			if s < lo {
				lo = s
			}
		}
		out[j] = lo - 1
	}
	return out
}

// newBootID returns a fresh primary-incarnation ID. Followers refuse to
// resume a stream across a boot-ID change: recovery after a torn crash
// may renumber sequences (DESIGN.md §15), so shipped history from an
// older incarnation cannot be extended, only replaced.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: boot ID entropy: %v", err)) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// initReplicationSource wires the primary side of replication: the
// sealer (fed by dispatch), the follower registry, and the stream source
// over the shard journals. last is the highest sequence already
// journaled.
func (s *Server) initReplicationSource(last int) {
	n := len(s.shards)
	s.bootID = newBootID()
	s.sealer = newSealer(n, last)
	s.replReg = replica.NewRegistry()
	s.replSrc = replica.NewSource(replica.SourceConfig{
		BootID: s.bootID,
		Shards: n,
		JournalPath: func(i int) string {
			return journalPath(shardDir(s.cfg.DataDir, n, i))
		},
		Sealed:   s.sealer.sealed,
		Registry: s.replReg,
		Poll:     s.cfg.ReplicaPoll,
	})
}

// isFollower reports whether this server is a read replica (not yet
// promoted).
func (s *Server) isFollower() bool { return s.follower != nil }

// ReplicationMetaJSON is the primary's stream rendezvous document.
type ReplicationMetaJSON struct {
	BootID       string  `json:"boot_id"`
	Shards       int     `json:"shards"`
	Sealed       []int   `json:"sealed"`
	JournalBytes []int64 `json:"journal_bytes"`
}

// ReplicationStatusJSON is /v1/replication/status for either role.
type ReplicationStatusJSON struct {
	Role   string `json:"role"` // "primary" | "replica"
	BootID string `json:"boot_id"`
	Shards int    `json:"shards"`

	// Primary side.
	Followers []replica.FollowerStatus `json:"followers,omitempty"`

	// Follower side.
	Primary       string            `json:"primary,omitempty"`
	AppliedSeq    *int              `json:"applied_seq,omitempty"`
	PrimarySealed *int              `json:"primary_sealed,omitempty"`
	ShardLag      []ReplicaShardLag `json:"shard_lag,omitempty"`
	LagSeconds    float64           `json:"lag_seconds,omitempty"`
	StreamError   string            `json:"stream_error,omitempty"`
}

// ReplicaShardLag is one shard's catch-up position on a follower.
type ReplicaShardLag struct {
	Shard           int   `json:"shard"`
	JournalBytes    int64 `json:"journal_bytes"`
	PrimaryJournal  int64 `json:"primary_journal_bytes"`
	LagBytes        int64 `json:"lag_bytes"`
	StreamConnected bool  `json:"stream_connected"`
}

func (s *Server) handleReplMeta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is a replica; streams are served by the primary")
		return
	}
	writeJSON(w, http.StatusOK, ReplicationMetaJSON{
		BootID:       s.bootID,
		Shards:       len(s.shards),
		Sealed:       s.sealer.sealed(),
		JournalBytes: s.replSrc.JournalSizes(),
	})
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.isFollower() {
		writeJSON(w, http.StatusOK, s.follower.status(s))
		return
	}
	writeJSON(w, http.StatusOK, ReplicationStatusJSON{
		Role:      "primary",
		BootID:    s.bootID,
		Shards:    len(s.shards),
		Followers: s.replReg.Status(),
	})
}

// handleReplJournal streams the merged ingest journal. Mounted raw (no
// request timeout): the stream lives until the follower disconnects or
// the server shuts down.
func (s *Server) handleReplJournal(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is a replica; streams are served by the primary")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, "missing follower id")
		return
	}
	from, err := strconv.Atoi(r.URL.Query().Get("from"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad from cursor")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	s.replSrc.ServeJournal(w, flush, id, from, s.closing) //nolint:errcheck // stream end is the follower's signal
}

func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if !s.isFollower() {
		writeErr(w, http.StatusConflict, "this node is already a primary")
		return
	}
	info, err := s.Promote()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// redirectToPrimary fences a write endpoint on a follower: 307 keeps
// the method and body, pointing the client at the primary.
func (s *Server) redirectToPrimary(w http.ResponseWriter, r *http.Request) {
	target := s.follower.primary + r.URL.Path
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

// replicaFile is the follower's identity marker under the data dir: the
// primary incarnation the local state was shipped from, and this
// follower's stable stream ID.
func replicaFile(dataDir string) string { return dataDir + string(os.PathSeparator) + "REPLICA" }
