package store

import (
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

// Store is the event-store access surface shared by the single-shard
// Memory and the multi-shard Sharded. The engine, collector, rollups,
// browser, and store digesting all program against this interface, so the
// number of shards behind an ingest path is invisible to readers:
// placement affects parallelism, never results.
type Store interface {
	// Writes. Add/AddAll assign IDs internally; both implementations
	// keep IDs globally monotonic and never reuse them.
	Add(in event.Instance) *event.Instance
	AddAll(ins []event.Instance)

	// Point and scan reads.
	Get(id int) (*event.Instance, bool)
	Len() int
	NextID() int
	Count(name string) int
	Names() []string
	Query(name string, from, to time.Time) []*event.Instance
	QueryFunc(name string, from, to time.Time, keep func(*event.Instance) bool) []*event.Instance
	QueryAt(name string, from, to time.Time, loc locus.Location) []*event.Instance
	All(name string) []*event.Instance
	ScanAfter(name string, after, limit int) (out []*event.Instance, more bool)
	Span() (first, last time.Time, ok bool)
	Dump() (base, next int, ins []event.Instance)

	// Hooks and retention. Hooks must be registered before concurrent
	// use; on a Sharded store they observe per-shard appends and
	// evictions (concurrently, one goroutine per shard applier).
	OnAppend(fn func(*event.Instance))
	OnEvict(fn func(evicted []*event.Instance, cutoff time.Time))
	SetRetention(d time.Duration)
	Retention() time.Duration
	EvictBefore(cutoff time.Time) int
}

var (
	_ Store = (*Memory)(nil)
	_ Store = (*Sharded)(nil)
)
