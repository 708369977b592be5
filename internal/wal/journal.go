// Package wal is the serving pipeline's durable log: a flat,
// append-only journal file of CRC32C-framed opaque records, the framing
// shared with the replication stream, and StoreDigest, the byte-identity
// check the recovery and replication guarantees are stated in. The
// paper's platform ran as a shared service continuously fed by many
// applications (§II); this package is what lets the reproduction survive
// a restart.
//
// The serving pipeline journals raw ingest batches, one journal per
// shard. The journal is the only durable structure: the collector's
// parse state (routing simulations, pairing buffers, rolling baselines)
// is a function of the raw input, so restart recovery replays the
// journal through a fresh collector, and the store it rebuilds is the
// store the service runs on. A torn final record (crash mid-write) is
// truncated, not fatal: the recovered journal is the longest committed
// prefix of the file.
package wal

import (
	"io"
	"os"
)

// Journal is a flat append-only file of framed records. Appends fsync
// before returning (or per group, with AppendNoSync and Sync); an
// acknowledged record survives kill -9.
type Journal struct {
	f   *os.File
	buf []byte
}

// JournalReader streams the committed records of one journal file. When
// it reaches a torn or corrupt frame it truncates the file in place at
// the end of the last intact frame and reports the end of the journal.
type JournalReader struct {
	path      string
	f         *os.File
	fr        *FrameReader
	off       int64 // end of the last intact frame
	truncated int64
}

// OpenJournalReader opens the journal at path for replay. A missing file
// is an empty journal.
func OpenJournalReader(path string) (*JournalReader, error) {
	r := &JournalReader{path: path}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	r.f, r.fr = f, NewFrameReader(f)
	return r, nil
}

// Next returns the next committed record's payload, valid until the
// following call. At the end of the committed prefix it returns io.EOF,
// after cutting off any torn tail.
func (r *JournalReader) Next() ([]byte, error) {
	if r.f == nil {
		return nil, io.EOF
	}
	p, err := r.fr.Next()
	switch err {
	case nil:
		r.off += int64(frameHeader + len(p))
		return p, nil
	case io.EOF:
		return nil, io.EOF
	case ErrTornFrame:
		st, err := r.f.Stat()
		if err != nil {
			return nil, err
		}
		r.truncated = st.Size() - r.off
		if err := os.Truncate(r.path, r.off); err != nil {
			return nil, err
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	default:
		return nil, err
	}
}

// Truncated reports how many torn-tail bytes Next cut off the file.
func (r *JournalReader) Truncated() int64 { return r.truncated }

// Close releases the file; Next reports io.EOF afterwards.
func (r *JournalReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// ReplayJournal streams every committed record of the journal at path to
// fn, truncating a torn tail in place (the longest-committed-prefix
// contract). A missing file is an empty journal.
func ReplayJournal(path string, fn func(payload []byte) error) (truncated int64, err error) {
	r, err := OpenJournalReader(path)
	if err != nil {
		return 0, err
	}
	defer r.Close() //nolint:errcheck // read side
	for {
		p, err := r.Next()
		if err == io.EOF {
			return r.Truncated(), nil
		}
		if err != nil {
			return r.Truncated(), err
		}
		if err := fn(p); err != nil {
			return 0, err
		}
	}
}

// OpenJournal opens (creating as needed) the journal at path for
// appending. Replay first: opening does not validate existing content.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append frames, writes, and fsyncs one record.
func (j *Journal) Append(payload []byte) error {
	if err := j.AppendNoSync(payload); err != nil {
		return err
	}
	return j.Sync()
}

// AppendNoSync frames and writes one record without forcing it to disk.
// Pair with Sync to commit a group of records under one fsync: none of
// the group is acknowledged until the Sync returns, so the durability
// contract is per-group instead of per-record.
//
// A payload up to inlineFrame bytes goes out in one write through a
// reused buffer; a larger one (a multi-MB feed body) is written as its
// header then itself, so no payload-sized copy outlives the call.
func (j *Journal) AppendNoSync(payload []byte) error {
	if len(payload) > inlineFrame {
		hdr := frameHeaderOf(payload)
		if _, err := j.f.Write(hdr[:]); err != nil {
			return err
		}
		_, err := j.f.Write(payload)
		return err
	}
	j.buf = AppendFrame(j.buf[:0], payload)
	_, err := j.f.Write(j.buf)
	return err
}

// Sync forces everything written so far to stable storage.
func (j *Journal) Sync() error { return fileSync(j.f) }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
