// Package ingestlog is the ingest journal's record format and its merged
// replay. The serving pipeline journals every accepted batch as one
// record in the journal of the shard that owns it; each record carries
// the batch's global dispatch sequence, so the shard journals merged by
// sequence are the total ingest history in commit order. Recovery,
// promotion and the chaos harness all rebuild state through Replay.
package ingestlog

import (
	"encoding/binary"
	"fmt"
	"io"

	"grca/internal/wal"
)

// Record kinds. A record is uvarint seq | kind | uvarint len(source) |
// source | body: raw feed lines for Feed, the JSON event array for
// Events, a wire.KindEvents batch (verbatim request bytes) for
// EventsWire, empty for Finalize.
const (
	Feed       byte = 1
	Finalize   byte = 2
	Events     byte = 3
	EventsWire byte = 4
)

// Record is one decoded journal record. Body aliases the buffer it was
// decoded from.
type Record struct {
	Seq    int
	Kind   byte
	Source string
	Body   []byte
}

// Encode returns the journal record for one batch.
func Encode(seq int, kind byte, source string, body []byte) []byte {
	out := make([]byte, 0, 10+1+10+len(source)+len(body))
	out = binary.AppendUvarint(out, uint64(seq))
	out = append(out, kind)
	out = binary.AppendUvarint(out, uint64(len(source)))
	out = append(out, source...)
	return append(out, body...)
}

// Decode parses one journal record.
func Decode(p []byte) (Record, error) {
	sq, sz := binary.Uvarint(p)
	if sz <= 0 {
		return Record{}, fmt.Errorf("ingestlog: truncated record seq")
	}
	p = p[sz:]
	if len(p) < 1 {
		return Record{}, fmt.Errorf("ingestlog: empty record")
	}
	kind, p := p[0], p[1:]
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return Record{}, fmt.Errorf("ingestlog: truncated record source")
	}
	return Record{Seq: int(sq), Kind: kind, Source: string(p[sz : sz+int(n)]), Body: p[sz+int(n):]}, nil
}

// Replay streams the committed records of every shard journal (paths[i]
// is shard i's) to fn, merged into ascending sequence order. Each
// journal is read incrementally and a torn tail is truncated in place,
// so memory holds one record per shard, not the history. A record's
// Body is valid only during its fn call. Within one journal sequences
// must ascend; a journal that breaks this is refused rather than
// replayed out of order.
func Replay(paths []string, fn func(shard int, r Record) error) error {
	readers := make([]*wal.JournalReader, len(paths))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close() //nolint:errcheck // read side
			}
		}
	}()
	heads := make([]Record, len(paths))
	live := make([]bool, len(paths))
	advance := func(i int) error {
		p, err := readers[i].Next()
		if err == io.EOF {
			live[i] = false
			return nil
		}
		if err != nil {
			return fmt.Errorf("ingestlog: %s: %v", paths[i], err)
		}
		r, err := Decode(p)
		if err != nil {
			return fmt.Errorf("ingestlog: %s: %v", paths[i], err)
		}
		if live[i] && r.Seq <= heads[i].Seq {
			return fmt.Errorf("ingestlog: %s: sequence %d after %d", paths[i], r.Seq, heads[i].Seq)
		}
		heads[i], live[i] = r, true
		return nil
	}
	for i, path := range paths {
		r, err := wal.OpenJournalReader(path)
		if err != nil {
			return fmt.Errorf("ingestlog: %v", err)
		}
		readers[i] = r
		if err := advance(i); err != nil {
			return err
		}
	}
	for {
		pick := -1
		for i := range heads {
			if live[i] && (pick < 0 || heads[i].Seq < heads[pick].Seq) {
				pick = i
			}
		}
		if pick < 0 {
			return nil
		}
		if err := fn(pick, heads[pick]); err != nil {
			return err
		}
		if err := advance(pick); err != nil {
			return err
		}
	}
}
