package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"grca/internal/event"
	"grca/internal/ingestlog"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// CrashResult reports one crash-restart replay.
type CrashResult struct {
	// Store is the journal-recovered store after the final restart;
	// diagnoses are scored against it.
	Store store.Store
	// Crashes is how many kill -9 restarts were simulated.
	Crashes int
	// Redelivered counts events of batches that were journaled but not
	// yet synced when a crash cut them off, and were delivered again by
	// the next session.
	Redelivered int
	// DigestMatch reports whether the recovered store is byte-identical
	// to the unperturbed one — the journal's whole contract.
	DigestMatch bool
}

// corpusBatch is one batch of the clean corpus as the server journals
// it: a wire-format event batch under the server's own record encoding,
// stamped with its dispatch sequence, in the journal of the shard that
// owns its first event.
type corpusBatch struct {
	rec    []byte
	owner  int
	events int
}

// recordEvents is the corpus batch size: a quarter of a commit group, so
// every group commit covers several journal records.
func (inj *Injector) recordEvents() int { return max(1, inj.cfg.CrashBatch/4) }

// journalCorpus splits ins into batches of per events, in store order.
// Batch i carries sequence i; its owner is the pre-finalize hash route
// of its first event, the server's owner rule.
func journalCorpus(ins []event.Instance, per, shards int) []corpusBatch {
	route := store.HashRoute(shards)
	var out []corpusBatch
	for lo := 0; lo < len(ins); lo += per {
		hi := min(lo+per, len(ins))
		out = append(out, corpusBatch{
			rec:    ingestlog.Encode(len(out), ingestlog.EventsWire, "", wire.AppendEvents(nil, ins[lo:hi])),
			owner:  route(ins[lo].Loc),
			events: hi - lo,
		})
	}
	return out
}

func journalPaths(dir string, shards int) []string {
	out := make([]string, shards)
	for i := range out {
		out[i] = filepath.Join(dir, fmt.Sprintf("journal-%d.log", i))
	}
	return out
}

// recoverJournals recovers the shard journals at paths by the merged
// replay server.Open runs (ingestlog.Replay: streaming, in sequence
// order, torn tails truncated in place), applying each event batch as
// Open does: decoded and added in order to a store with the
// pre-finalize hash routing. It returns the store and the sequences that
// survived.
func recoverJournals(paths []string) (*store.Sharded, map[int]bool, error) {
	st := store.NewSharded(len(paths), store.HashRoute(len(paths)))
	seen := map[int]bool{}
	err := ingestlog.Replay(paths, func(_ int, r ingestlog.Record) error {
		b, err := wire.Decode(r.Body)
		if err != nil {
			return fmt.Errorf("seq %d: %v", r.Seq, err)
		}
		for i := range b.Events {
			st.Add(b.Events[i])
		}
		seen[r.Seq] = true
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: journal recovery: %v", err)
	}
	return st, seen, nil
}

// CrashReplay simulates a single-shard serve process being killed and
// restarted mid-ingest; see CrashReplaySharded.
func (inj *Injector) CrashReplay(clean store.Store) (CrashResult, error) {
	return inj.CrashReplaySharded(clean, 1)
}

// CrashReplaySharded simulates a serve process with the given shard
// count being killed (with its machine: unsynced page cache is lost) and
// restarted mid-ingest. The clean corpus is journaled in store order as
// event batches, each record appended to its owner shard's journal
// without a sync, and every shard journal is synced once per CrashBatch
// events — the group commit that acknowledges them. At each seeded crash
// point every shard journal is cut at a seeded byte offset inside its
// unsynced suffix (mid-header, mid-payload, or on a frame boundary), and
// the next session recovers by the merged replay and re-delivers every
// batch that did not survive.
//
// Re-delivered batches keep their original sequence numbers. On one
// shard the lost batches are exactly a suffix, so this is what a
// restarted server assigns them anyway. Across shards the cuts can keep
// a later batch while losing an earlier one; keeping the sequence is
// the idealized client that re-sends precisely what is missing, so the
// final replay must converge byte-identically to the unperturbed store.
func (inj *Injector) CrashReplaySharded(clean store.Store, shards int) (CrashResult, error) {
	dir, err := os.MkdirTemp("", "grca-chaos-crash-")
	if err != nil {
		return CrashResult{}, err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup

	_, _, ins := clean.Dump()
	n := len(ins)
	per := inj.recordEvents()
	batches := journalCorpus(ins, per, shards)
	paths := journalPaths(dir, shards)

	// Crash points: distinct event positions in (0, n), drawn from the
	// seed so the same matrix run crashes at the same events for every
	// shard count.
	rng := inj.rng("crash")
	pts := map[int]bool{}
	for len(pts) < inj.cfg.CrashCount && len(pts) < n-1 {
		pts[1+rng.Intn(n-1)] = true
	}
	cuts := make([]int, 0, len(pts))
	for p := range pts {
		cuts = append(cuts, p)
	}
	sort.Ints(cuts)
	tear := inj.rng("crash-tear")

	res := CrashResult{}
	survived := map[int]bool{}
	written := 0 // batches a session has journaled so far
	// session journals every missing batch below upto; a crash then tears
	// each shard's unsynced suffix at a seeded offset.
	session := func(upto int, crash bool) error {
		js := make([]*wal.Journal, shards)
		synced := make([]int64, shards)
		for i, p := range paths {
			j, err := wal.OpenJournal(p)
			if err != nil {
				return err
			}
			js[i] = j
			if synced[i], err = fileSize(p); err != nil {
				return err
			}
		}
		commit := func() error {
			for i, j := range js {
				if err := j.Sync(); err != nil {
					return err
				}
				var err error
				if synced[i], err = fileSize(paths[i]); err != nil {
					return err
				}
			}
			return nil
		}
		pending := 0
		for seq := 0; seq < upto; seq++ {
			if survived[seq] {
				continue
			}
			b := batches[seq]
			if err := js[b.owner].AppendNoSync(b.rec); err != nil {
				return err
			}
			if pending += b.events; pending >= inj.cfg.CrashBatch {
				if err := commit(); err != nil {
					return err
				}
				pending = 0
			}
		}
		written = max(written, upto)
		if !crash {
			if err := commit(); err != nil {
				return err
			}
		}
		for _, j := range js {
			if err := j.Close(); err != nil {
				return err
			}
		}
		if !crash {
			return nil
		}
		res.Crashes++
		for i, p := range paths {
			size, err := fileSize(p)
			if err != nil {
				return err
			}
			if size > synced[i] {
				if err := os.Truncate(p, synced[i]+tear.Int63n(size-synced[i]+1)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	restart := func() (*store.Sharded, error) {
		st, seen, err := recoverJournals(paths)
		if err != nil {
			return nil, err
		}
		for seq := 0; seq < written; seq++ {
			if !seen[seq] {
				res.Redelivered += batches[seq].events
			}
		}
		survived = seen
		return st, nil
	}
	for _, cut := range cuts {
		if err := session((cut+per-1)/per, true); err != nil {
			return res, err
		}
		if _, err := restart(); err != nil {
			return res, err
		}
	}
	if err := session(len(batches), false); err != nil {
		return res, err
	}
	st, err := restart()
	if err != nil {
		return res, err
	}
	res.Store = st
	res.DigestMatch = wal.StoreDigest(st) == wal.StoreDigest(clean)
	return res, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
