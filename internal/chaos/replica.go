package chaos

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"grca/internal/ingestlog"
	"grca/internal/replica"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// replicaShards is the primary's shard count in the replication
// scenarios: enough journals that the stream is a real sequence merge.
const replicaShards = 3

// ReplicaResult reports one replication fault scenario: a follower fed
// the primary's merged journal stream through the real protocol (the
// replica.Source merge → replica.Reader → local journals and live store)
// with seeded stalls or mid-frame connection cuts, then healed and
// recovered like a promotion would.
type ReplicaResult struct {
	// Store is the healed follower store, recovered from the follower's
	// own journals by the merged replay promotion runs; diagnoses are
	// scored against it.
	Store store.Store
	// Total is the primary's event count; StaleFrontier is the follower's
	// live event count while the fault held — the consistent prefix a
	// lagging replica was serving reads from.
	Total         int
	StaleFrontier int
	// Reconnects counts stream re-establishments; Torn counts
	// deliveries that ended mid-frame (partition only).
	Reconnects int
	Torn       int
	// DigestMatch reports whether the healed follower — live and
	// recovered alike — is byte-identical to the clean store:
	// replication's whole contract: lag and partitions delay visibility,
	// they never change what converges.
	DigestMatch bool
}

// chaosFollower is the follower side of a replication scenario: it
// journals each shipped record locally and applies it to its live store,
// as the server's follower does.
type chaosFollower struct {
	journals []*wal.Journal
	live     *store.Sharded
	applied  int // last applied sequence
}

// apply journals and applies one shipped record; a record at or below
// the applied sequence is reconnect overlap and is skipped.
func (f *chaosFollower) apply(shard int, rec []byte) error {
	r, err := ingestlog.Decode(rec)
	if err != nil {
		return err
	}
	if r.Seq <= f.applied {
		return nil
	}
	if shard < 0 || shard >= len(f.journals) {
		return fmt.Errorf("chaos: record for shard %d of %d", shard, len(f.journals))
	}
	if err := f.journals[shard].AppendNoSync(rec); err != nil {
		return err
	}
	b, err := wire.Decode(r.Body)
	if err != nil {
		return err
	}
	for i := range b.Events {
		f.live.Add(b.Events[i])
	}
	f.applied = r.Seq
	return nil
}

// applyStream decodes one shipped byte stream into the follower,
// stopping at clean EOF or at a torn frame (a connection cut mid-frame:
// the partial frame is discarded undecoded, exactly as the live client's
// reader does). stopAt, when >= 0, stalls the transfer once the
// follower's live store holds that many events — a link that stopped
// draining.
func applyStream(f *chaosFollower, data []byte, stopAt int) (torn bool, err error) {
	r := replica.NewReader(wal.NewFrameReader(bytes.NewReader(data)))
	for {
		if stopAt >= 0 && f.live.Len() >= stopAt {
			return false, nil
		}
		m, err := r.Next()
		if err == io.EOF {
			return false, nil
		}
		if err == wal.ErrTornFrame {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		switch m.Type {
		case replica.MsgHello, replica.MsgHeartbeat, replica.MsgEOF:
			// Framing only; the single-pass stream has nothing to confirm.
		case replica.MsgJournalRec:
			if err := f.apply(m.Shard, m.Rec); err != nil {
				return false, err
			}
		default:
			return false, fmt.Errorf("chaos: unexpected stream message type %d", m.Type)
		}
	}
}

// ReplicaReplay simulates a read replica under one replication fault
// class and returns the stale view it served plus the healed result.
// The clean corpus is journaled across the primary's shard journals,
// and the follower consumes the merged stream replica.Source serves,
// resuming from its last applied sequence after every interruption:
//
//   - FaultReplicaLag: the stream stalls once LagFraction of the corpus
//     has been applied — a slow or stopped link. The follower serves a
//     consistent prefix until the stream resumes.
//   - FaultPartition: PartitionCount times, the connection is severed at
//     a seeded byte offset — usually mid-frame — and the follower
//     reconnects through the torn-frame discard path.
//
// After the fault heals, the remaining stream drains, the follower's
// journals are recovered by the merged replay (the promotion path), and
// both the live and the recovered store are compared byte-for-byte
// against the clean store.
func (inj *Injector) ReplicaReplay(clean store.Store, f Fault) (ReplicaResult, error) {
	if f != FaultReplicaLag && f != FaultPartition {
		return ReplicaResult{}, fmt.Errorf("chaos: %s is not a replication fault", f)
	}
	primDir, err := os.MkdirTemp("", "grca-chaos-replica-prim-")
	if err != nil {
		return ReplicaResult{}, err
	}
	defer os.RemoveAll(primDir) //nolint:errcheck // best-effort temp cleanup
	follDir, err := os.MkdirTemp("", "grca-chaos-replica-foll-")
	if err != nil {
		return ReplicaResult{}, err
	}
	defer os.RemoveAll(follDir) //nolint:errcheck // best-effort temp cleanup

	_, _, ins := clean.Dump()
	res := ReplicaResult{Total: len(ins)}

	// The primary: the corpus journaled and synced across its shards, so
	// every record is sealed.
	batches := journalCorpus(ins, inj.recordEvents(), replicaShards)
	primPaths := journalPaths(primDir, replicaShards)
	for i, p := range primPaths {
		j, err := wal.OpenJournal(p)
		if err != nil {
			return res, err
		}
		for _, b := range batches {
			if b.owner == i {
				if err := j.AppendNoSync(b.rec); err != nil {
					return res, err
				}
			}
		}
		if err := j.Sync(); err != nil {
			return res, err
		}
		if err := j.Close(); err != nil {
			return res, err
		}
	}
	last := len(batches) - 1
	src := replica.NewSource(replica.SourceConfig{
		BootID:      "chaos-replica",
		Shards:      replicaShards,
		JournalPath: func(i int) string { return primPaths[i] },
		Sealed: func() []int {
			out := make([]int, replicaShards)
			for i := range out {
				out[i] = last
			}
			return out
		},
		Registry: replica.NewRegistry(),
	})
	// ship runs one connection of the real stream from the follower's
	// resume point; a closed stop makes it a single pass.
	stop := make(chan struct{})
	close(stop)
	fol := &chaosFollower{live: store.NewSharded(replicaShards, store.HashRoute(replicaShards)), applied: -1}
	ship := func() ([]byte, error) {
		var buf bytes.Buffer
		if err := src.ServeJournal(&buf, nil, "chaos", fol.applied, stop); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	follPaths := journalPaths(follDir, replicaShards)
	for _, p := range follPaths {
		j, err := wal.OpenJournal(p)
		if err != nil {
			return res, err
		}
		fol.journals = append(fol.journals, j)
	}

	if f == FaultReplicaLag {
		stream, err := ship()
		if err != nil {
			return res, err
		}
		stall := int(inj.cfg.LagFraction * float64(len(ins)))
		if _, err := applyStream(fol, stream, stall); err != nil {
			return res, err
		}
		res.Reconnects = 1 // the single resume after the stall clears
	} else {
		rng := inj.rng("partition")
		for k := 0; k < inj.cfg.PartitionCount; k++ {
			stream, err := ship()
			if err != nil {
				return res, err
			}
			cut := 1 + rng.Intn(len(stream))
			torn, err := applyStream(fol, stream[:cut], -1)
			if err != nil {
				return res, err
			}
			if torn {
				res.Torn++
			}
			res.Reconnects++
		}
	}
	res.StaleFrontier = fol.live.Len()

	// Heal: the stream re-establishes from the follower's applied
	// sequence and drains to the primary's end.
	stream, err := ship()
	if err != nil {
		return res, err
	}
	if torn, err := applyStream(fol, stream, -1); err != nil {
		return res, err
	} else if torn {
		return res, fmt.Errorf("chaos: heal stream ended torn")
	}
	for _, j := range fol.journals {
		if err := j.Sync(); err != nil {
			return res, err
		}
		if err := j.Close(); err != nil {
			return res, err
		}
	}

	st, _, err := recoverJournals(follPaths)
	if err != nil {
		return res, fmt.Errorf("chaos: follower recovery: %v", err)
	}
	res.Store = st
	want := wal.StoreDigest(clean)
	res.DigestMatch = wal.StoreDigest(st) == want && wal.StoreDigest(fol.live) == want
	return res, nil
}
