package replica

import (
	"sort"
	"sync"
	"time"

	"grca/internal/obs"
)

// DefaultGrace is how long a disconnected follower stays listed: a
// transient partition shows as an idle follower, not a vanished one.
const DefaultGrace = 5 * time.Minute

// Registry tracks attached followers on the primary — per follower, the
// open stream count and the merged-journal sequence shipped — and backs
// /v1/replication/status. A follower that disconnects keeps its entry
// for the grace window.
type Registry struct {
	grace time.Duration

	mu        sync.Mutex
	followers map[string]*followerEntry
}

type followerEntry struct {
	id         string
	streams    int // open stream connections
	lastSeen   time.Time
	journalSeq int // last merged-journal seq shipped
}

// FollowerStatus is one follower's row in the primary's replication
// status.
type FollowerStatus struct {
	ID         string  `json:"id"`
	Streams    int     `json:"streams"`
	Connected  bool    `json:"connected"`
	IdleSecs   float64 `json:"idle_seconds"`
	JournalSeq int     `json:"journal_seq"`
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{grace: DefaultGrace, followers: map[string]*followerEntry{}}
}

// Attach registers one stream connection for the follower, creating its
// entry on first contact.
func (r *Registry) Attach(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.followers[id]
	if e == nil {
		e = &followerEntry{id: id, journalSeq: -1}
		r.followers[id] = e
	}
	e.streams++
	e.lastSeen = obs.Now()
}

// Detach drops one stream connection and stamps the grace-window clock.
func (r *Registry) Detach(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.followers[id]; e != nil {
		if e.streams > 0 {
			e.streams--
		}
		e.lastSeen = obs.Now()
	}
}

// NoteJournal records the merged-journal sequence shipped to the
// follower.
func (r *Registry) NoteJournal(id string, seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.followers[id]; e != nil {
		if seq > e.journalSeq {
			e.journalSeq = seq
		}
		e.lastSeen = obs.Now()
	}
}

// expireLocked removes disconnected entries past the grace window.
func (r *Registry) expireLocked() {
	for id, e := range r.followers {
		if e.streams == 0 && obs.Since(e.lastSeen) > r.grace {
			delete(r.followers, id)
		}
	}
}

// Status returns every live follower's row, sorted by ID.
func (r *Registry) Status() []FollowerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked()
	out := make([]FollowerStatus, 0, len(r.followers))
	for _, e := range r.followers {
		out = append(out, FollowerStatus{
			ID: e.id, Streams: e.streams, Connected: e.streams > 0,
			IdleSecs:   obs.Since(e.lastSeen).Seconds(),
			JournalSeq: e.journalSeq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
