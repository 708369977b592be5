package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"grca/internal/event"
)

// Snapshot file format:
//
//	magic "GRCASNAP1" | frame(header) | count × frame(uvarint ID + instance)
//
// where header is uvarint base | uvarint next | uvarint count. Every
// frame carries the standard CRC32C, and count is committed up front, so
// a partially written snapshot is detected and skipped at recovery (the
// write is also staged through a rename, making a torn snapshot unlikely
// in the first place).
const snapMagic = "GRCASNAP1"

func snapFile(dir string, next int) string {
	return filepath.Join(snapDir(dir), fmt.Sprintf("snap-%016d.snap", next))
}

// Snapshot flushes pending records, writes a full dump of the store, and
// compacts: segments made redundant by the snapshot and all but the
// previous snapshot are deleted. Run every Options.SnapshotEvery records
// with store retention on, this keeps disk bounded by the live store plus
// SnapshotEvery records.
//
// The dump streams through a reused scratch buffer and a buffered
// writer — never a full in-memory image — so snapshotting a large store
// costs no large allocations and no growslice copying (it showed up as
// the dominant ingest-path cost before: every 50k-record snapshot
// re-copied a multi-megabyte buffer through doubling growth).
func (l *Log) Snapshot() error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	// Records buffered but unflushed are covered by the dump below; sync
	// them anyway so the log never trails the snapshot's claim.
	if err := l.Sync(); err != nil {
		return err
	}

	tmp := filepath.Join(snapDir(l.dir), "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	next := 0
	scratch := make([]byte, 0, 1024)
	frame := make([]byte, 0, 1024)
	werr := l.st.SnapshotTo(
		func(base, n, count int) error {
			next = n
			if _, err := bw.WriteString(snapMagic); err != nil {
				return err
			}
			scratch = binary.AppendUvarint(scratch[:0], uint64(base))
			scratch = binary.AppendUvarint(scratch, uint64(n))
			scratch = binary.AppendUvarint(scratch, uint64(count))
			frame = appendFrame(frame[:0], scratch)
			_, err := bw.Write(frame)
			return err
		},
		func(in *event.Instance) error {
			scratch = binary.AppendUvarint(scratch[:0], uint64(in.ID))
			scratch = appendInstance(scratch, in)
			frame = appendFrame(frame[:0], scratch)
			_, err := bw.Write(frame)
			return err
		})
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = fileSync(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	path := snapFile(l.dir, next)
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(snapDir(l.dir)); err != nil {
		return err
	}
	mSnapshots.Inc()

	l.mu.Lock()
	l.snapNext = next
	if l.sinceSnap = l.nextSeq - next; l.sinceSnap < 0 {
		l.sinceSnap = 0
	}
	active := l.segPath
	l.mu.Unlock()
	return l.compact(active)
}

// compact keeps the latest two snapshots and removes segments whose
// entire record range lies below the OLDER retained snapshot (never the
// active segment). Compacting to the older snapshot — not the one just
// written — is what makes the two-snapshot retention real: if the newest
// snapshot turns out unreadable at recovery, the previous snapshot plus
// the still-present segments rebuild the same state. A compaction pin
// (SetCompactPin) additionally keeps every segment holding records a
// replication follower has not shipped yet: segment i's records all lie
// below segment i+1's first ID, so it is removable only when that bound
// clears both the snapshot horizon and the pin.
func (l *Log) compact(active string) error {
	snaps, nums, err := listNumbered(snapDir(l.dir), "snap-", ".snap")
	if err != nil {
		return err
	}
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(snaps[i]); err != nil {
			return err
		}
	}
	horizon := 0 // only one snapshot: it has no fallback, delete nothing
	if n := len(nums); n >= 2 {
		horizon = nums[n-2]
	}
	if pin := l.compactPin(); pin < horizon {
		horizon = pin
	}
	segs, firsts, err := listNumbered(walDir(l.dir), "seg-", ".log")
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if firsts[i+1] <= horizon && segs[i] != active {
			if err := os.Remove(segs[i]); err != nil {
				return err
			}
			mCompacted.Inc()
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadLatestSnapshot restores the newest readable snapshot into the
// fresh store, skipping unreadable ones (a torn write during a crash).
func (l *Log) loadLatestSnapshot(rec *Recovery) error {
	snaps, _, err := listNumbered(snapDir(l.dir), "snap-", ".snap")
	if err != nil {
		return err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		base, next, ins, err := readSnapshot(snaps[i], l.opts.replayWorkers())
		if err != nil {
			// Unreadable snapshot: fall back to the previous one (the
			// segments below it still exist until a snapshot succeeds).
			continue
		}
		if err := l.st.Restore(base, next, ins); err != nil {
			return fmt.Errorf("wal: snapshot %s: %v", snaps[i], err)
		}
		rec.SnapshotNext = next
		rec.SnapshotLive = len(ins)
		return nil
	}
	return nil
}

func readSnapshot(path string, workers int) (base, next int, ins []event.Instance, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return 0, 0, nil, fmt.Errorf("wal: %s: bad snapshot magic", path)
	}
	rest := data[len(snapMagic):]
	hdr, rest, ok := readFrame(rest)
	if !ok {
		return 0, 0, nil, fmt.Errorf("wal: %s: torn snapshot header", path)
	}
	b, sz := binary.Uvarint(hdr)
	if sz <= 0 {
		return 0, 0, nil, fmt.Errorf("wal: %s: bad snapshot base", path)
	}
	hdr = hdr[sz:]
	n, sz := binary.Uvarint(hdr)
	if sz <= 0 {
		return 0, 0, nil, fmt.Errorf("wal: %s: bad snapshot next", path)
	}
	hdr = hdr[sz:]
	count, sz := binary.Uvarint(hdr)
	if sz <= 0 {
		return 0, 0, nil, fmt.Errorf("wal: %s: bad snapshot count", path)
	}
	base, next = int(b), int(n)
	// Frame scan first, parallel decode second — same staging as segment
	// replay, same any-worker-count determinism.
	frames := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		payload, r2, ok := readFrame(rest)
		if !ok {
			return 0, 0, nil, fmt.Errorf("wal: %s: torn snapshot record %d/%d", path, i, count)
		}
		frames = append(frames, payload)
		rest = r2
	}
	ins = make([]event.Instance, len(frames))
	err = parallelIndexed(len(frames), workers, func(i int) error {
		payload := frames[i]
		id, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return fmt.Errorf("wal: %s: bad snapshot record ID", path)
		}
		in, err := decodeInstance(payload[sz:])
		if err != nil {
			return fmt.Errorf("wal: %s: snapshot record %d: %v", path, i, err)
		}
		in.ID = int(id)
		ins[i] = in
		return nil
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return base, next, ins, nil
}
