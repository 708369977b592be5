package store

import (
	"slices"
	"sort"
	"time"

	"grca/internal/event"
	"grca/internal/obs"
)

// Retention eviction.
//
// The window is anchored on the head — the latest Start of any live
// instance — and quantized: with q = retention/4, an instance is live
// while the q-quantum its End falls in is not older than the quantum of
// head−retention. So nothing whose End ≥ head−retention is ever evicted,
// and nothing older than head−1.25×retention survives a write.
//
// The head instance itself always stays live (End ≥ Start = head >
// head−retention), so the live set after any write is the pure function
// {inserted : quantum(End) ≥ quantum(head−retention)} of what was
// inserted — independent of batching and of insertion order. That is
// what lets journal replay and a follower reach the same StoreDigest as
// the live store. Anchoring on Start (not End) keeps
// one long-lived event from evicting everything before its End.
//
// Cost: live instances sit in End-keyed buckets, one per quantum. A
// sweep runs only when the head's quantum advances past the oldest
// bucket; it pops whole buckets, filters only the Start-sorted prefix
// of each affected name index, and recomputes Span and the head from the
// per-name bounds. An insert already behind the cutoff (a feed uploaded
// after a later one) is evicted on arrival in O(1).

// Eviction metrics: sweeps, instances evicted, and the instances the
// sweeps examined (bucket members, index prefixes, trimmed ID slots) —
// the O(evicted) bound the regression tests pin.
var (
	mEvicted      = obs.GetCounter("store.evicted")
	mEvictions    = obs.GetCounter("store.evictions")
	mEvictScanned = obs.GetCounter("store.evict.scanned")
)

// endBuckets groups live instances by the retention quantum of their End.
type endBuckets struct {
	quantum time.Duration
	byQ     map[int64]*[]*event.Instance
	keys    []int64 // ascending; exactly the keys of byQ
}

// quantumEpoch aligns quanta across stores so that shards, replicas and
// recoveries agree on bucket boundaries.
var quantumEpoch = time.Unix(0, 0).UTC()

func newEndBuckets(retention time.Duration) *endBuckets {
	q := retention / 4
	if q <= 0 {
		q = 1
	}
	return &endBuckets{quantum: q, byQ: map[int64]*[]*event.Instance{}}
}

// key returns the quantum t falls in (floor division; t.Sub saturates at
// the extremes, which keeps the mapping monotone).
func (b *endBuckets) key(t time.Time) int64 {
	d := t.Sub(quantumEpoch)
	k := int64(d / b.quantum)
	if d%b.quantum < 0 {
		k--
	}
	return k
}

// start returns the first instant of quantum k.
func (b *endBuckets) start(k int64) time.Time {
	return quantumEpoch.Add(time.Duration(k) * b.quantum)
}

func (b *endBuckets) add(in *event.Instance) {
	k := b.key(in.End)
	bucket := b.byQ[k]
	if bucket == nil {
		bucket = new([]*event.Instance)
		b.byQ[k] = bucket
		i, _ := slices.BinarySearch(b.keys, k)
		b.keys = slices.Insert(b.keys, i, k)
	}
	*bucket = append(*bucket, in)
}

// popBefore removes every bucket older than quantum k and returns their
// instances.
func (b *endBuckets) popBefore(k int64) (gone []*event.Instance) {
	n := 0
	for n < len(b.keys) && b.keys[n] < k {
		gone = append(gone, *b.byQ[b.keys[n]]...)
		delete(b.byQ, b.keys[n])
		n++
	}
	b.keys = slices.Delete(b.keys, 0, n)
	return gone
}

// SetRetention bounds the store's look-back window: instances whose End
// falls more than d (up to 1.25×d, by quantum) before the latest stored
// Start are evicted as inserts advance the head. Zero disables eviction.
// Turning retention on for a non-empty store indexes what it holds; the
// next write sweeps.
func (s *Memory) SetRetention(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retention = d
	s.rebucketLocked()
}

// rebucketLocked rebuilds the eviction buckets from the live instances
// (none with retention off).
func (s *Memory) rebucketLocked() {
	s.buckets = nil
	if s.retention <= 0 {
		return
	}
	s.buckets = newEndBuckets(s.retention)
	for _, in := range s.byID {
		if in != nil {
			s.buckets.add(in)
		}
	}
}

// Retention returns the configured look-back window (zero = unbounded).
func (s *Memory) Retention() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retention
}

// evicting reports whether the window is in force: retention on and a
// head to anchor it.
func (s *Memory) evicting() bool { return s.buckets != nil && s.live > 0 }

// cutoffKey is the oldest quantum the window keeps; call only while
// evicting.
func (s *Memory) cutoffKey() int64 { return s.buckets.key(s.head.Add(-s.retention)) }

// isLateLocked reports whether an instance ending at end is already
// outside the window and so is evicted on arrival.
func (s *Memory) isLateLocked(end time.Time) bool {
	return s.evicting() && s.buckets.key(end) < s.cutoffKey()
}

// sweepLocked pops every bucket older than the window's cutoff quantum.
func (s *Memory) sweepLocked() (gone []*event.Instance, cutoff time.Time) {
	if !s.evicting() {
		return nil, time.Time{}
	}
	ck := s.cutoffKey()
	if gone = s.buckets.popBefore(ck); len(gone) == 0 {
		return nil, time.Time{}
	}
	cutoff = s.buckets.start(ck)
	s.removeLocked(gone, cutoff)
	return gone, cutoff
}

// EvictBefore removes every instance whose End falls strictly before
// cutoff and returns how many were evicted. Evicted IDs stay tombstoned
// (Get reports not found; later IDs are unchanged) and the Span bounds
// stay exact. The registered OnEvict hooks, if any, run after the lock
// is released. An explicit sweep at an arbitrary cutoff scans the whole
// store; the retention window's own sweeps are the O(evicted) path.
func (s *Memory) EvictBefore(cutoff time.Time) int {
	s.mu.Lock()
	var gone []*event.Instance
	for _, in := range s.byID {
		if in != nil && in.End.Before(cutoff) {
			gone = append(gone, in)
		}
	}
	if len(gone) > 0 {
		s.removeLocked(gone, cutoff)
		s.rebucketLocked()
	}
	ev := evictions{gone: gone, cutoff: cutoff, hooks: s.onEvict}
	s.mu.Unlock()
	ev.notify()
	return len(gone)
}

// removeLocked evicts gone — live instances, all with End < cutoff,
// already out of the buckets: it tombstones their IDs, filters them out
// of their name indexes, trims leading tombstones, and recomputes Span
// and the head from the per-name bounds.
func (s *Memory) removeLocked(gone []*event.Instance, cutoff time.Time) {
	var touched []string
	for _, in := range gone {
		s.byID[in.ID-s.base] = nil
		if idx := s.byName[in.Name]; !idx.marked {
			idx.marked = true
			touched = append(touched, in.Name)
		}
	}
	scanned := int64(len(gone))
	s.live -= len(gone)
	mEvicted.Add(int64(len(gone)))
	mEvictions.Inc()

	for _, name := range touched {
		idx := s.byName[name]
		idx.marked = false
		scanned += int64(s.filterIndexLocked(idx, cutoff))
		if len(idx.instances) == 0 {
			delete(s.byName, name)
		}
	}

	// Trim leading tombstones, advancing the ID base. Reslicing keeps the
	// trimmed slots until the next growth reallocates; copy only once the
	// dead prefix outweighs the rest so the array cannot stay oversized.
	trim := 0
	for trim < len(s.byID) && s.byID[trim] == nil {
		trim++
	}
	scanned += int64(trim)
	if trim > 0 {
		if trim > len(s.byID)-trim {
			s.byID = append([]*event.Instance(nil), s.byID[trim:]...)
		} else {
			s.byID = s.byID[trim:]
		}
		s.base += trim
	}
	mEvictScanned.Add(scanned)

	if s.live == 0 {
		s.first, s.last, s.head = time.Time{}, time.Time{}, time.Time{}
		return
	}
	// Eviction is keyed on End < cutoff and the latest End is never below
	// a surviving instance's End, so last stays exact; first and head
	// follow from the per-name bounds.
	s.first, s.head = time.Time{}, time.Time{}
	for _, idx := range s.byName {
		if s.first.IsZero() || idx.minStart.Before(s.first) {
			s.first = idx.minStart
		}
		if s.head.IsZero() || idx.maxStart.After(s.head) {
			s.head = idx.maxStart
		}
	}
}

// filterIndexLocked drops the tombstoned instances from one name index
// and refreshes its Start bounds, returning how many entries it
// examined. A clean index only holds evicted instances in its prefix of
// Starts before cutoff (Start ≤ End < cutoff), so only that prefix is
// filtered; a dirty one is filtered whole, preserving order. maxDur stays
// an upper bound: a too-wide query bound costs extra scan, never
// correctness.
func (s *Memory) filterIndexLocked(idx *nameIndex, cutoff time.Time) int {
	ins := idx.instances
	live := func(in *event.Instance) bool { return s.byID[in.ID-s.base] == in }
	if idx.dirty {
		kept := ins[:0]
		for _, in := range ins {
			if live(in) {
				if len(kept) == 0 || in.Start.Before(idx.minStart) {
					idx.minStart = in.Start
				}
				if len(kept) == 0 || in.Start.After(idx.maxStart) {
					idx.maxStart = in.Start
				}
				kept = append(kept, in)
			}
		}
		clear(ins[len(kept):])
		idx.instances = kept
		return len(ins)
	}
	p := sort.Search(len(ins), func(i int) bool { return !ins[i].Start.Before(cutoff) })
	// Compact the survivors of the prefix against its right end so the
	// untouched suffix stays where it is.
	w := p
	for i := p - 1; i >= 0; i-- {
		if live(ins[i]) {
			w--
			ins[w] = ins[i]
		}
	}
	clear(ins[:w])
	if rest := ins[w:]; w > len(rest) {
		idx.instances = append([]*event.Instance(nil), rest...)
	} else {
		idx.instances = rest
	}
	if n := len(idx.instances); n > 0 {
		idx.minStart, idx.maxStart = idx.instances[0].Start, idx.instances[n-1].Start
	}
	return p
}
