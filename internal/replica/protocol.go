// Package replica is the journal-shipping replication subsystem: a
// primary-side Source that tails the serving pipeline's ingest journals
// and streams them, merged into global sequence order, over HTTP, and a
// reconnecting follower-side Client that feeds the stream to a live read
// replica.
//
// The stream reuses the journal's record framing (len | CRC32C |
// payload), so the wire format is the on-disk format; each frame's
// payload is one protocol message: a type byte followed by a
// type-specific body. The stream ships every shard's journal records
// merged into global sequence order, each tagged with its owner shard.
// It is totally ordered, so the follower applies records in arrival
// order through the same replay path crash recovery uses — same
// routing, same dense ID allocation, same store digests — and journals
// them locally, so its own restart or promotion replays the same
// history. Heartbeats carry the primary's sealed sequence and per-shard
// journal sizes — the lag signal.
package replica

import (
	"encoding/binary"
	"fmt"

	"grca/internal/wal"
)

// Protocol message types. One frame carries one message.
const (
	// MsgHello is the server's first frame on the stream: protocol
	// version, the primary's boot ID, its shard count, the stream kind,
	// and the resume point the server honored.
	MsgHello byte = 1
	// MsgJournalRec carries one ingest-journal record and the shard whose
	// journal owns it. Records arrive in global sequence order.
	MsgJournalRec byte = 2
	// MsgHeartbeat carries the primary's sealed sequence and per-shard
	// journal byte sizes — the follower's lag inputs.
	MsgHeartbeat byte = 7
	// MsgEOF ends a stream deliberately (shutdown, seal) with a reason.
	MsgEOF byte = 8
)

// ProtocolVersion is negotiated via MsgHello; a follower refuses a
// primary speaking a different version.
const ProtocolVersion = 2

// StreamJournal is the stream kind named in MsgHello.
const StreamJournal byte = 'j'

// maxShards bounds the per-shard arrays a heartbeat or hello may claim,
// so a corrupt frame cannot drive a huge allocation.
const maxShards = 1024

// Msg is one decoded protocol message; the populated fields depend on
// Type. Rec aliases the decoded frame's buffer — copy to retain across
// the next read.
type Msg struct {
	Type byte

	// MsgHello
	Ver    int
	BootID string
	Shards int
	Stream byte
	From   int

	// MsgJournalRec
	Shard int
	Rec   []byte

	// MsgHeartbeat
	Sealed       int
	JournalBytes []int64

	// MsgEOF
	Reason string
}

func appendStreamString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readStreamString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return "", p, fmt.Errorf("replica: truncated string")
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

// appendMsg frames one encoded message payload onto b.
func appendMsg(b, payload []byte) []byte { return wal.AppendFrame(b, payload) }

// AppendHello frames a hello message onto b.
func AppendHello(b []byte, bootID string, shards int, stream byte, from int) []byte {
	p := make([]byte, 0, 32+len(bootID))
	p = append(p, MsgHello)
	p = binary.AppendUvarint(p, ProtocolVersion)
	p = appendStreamString(p, bootID)
	p = binary.AppendUvarint(p, uint64(shards))
	p = append(p, stream)
	p = binary.AppendVarint(p, int64(from))
	return appendMsg(b, p)
}

// AppendJournalRec frames one journal record (owner shard + verbatim
// on-disk record bytes) onto b.
func AppendJournalRec(b []byte, shard int, rec []byte) []byte {
	p := make([]byte, 0, 8+len(rec))
	p = append(p, MsgJournalRec)
	p = binary.AppendUvarint(p, uint64(shard))
	p = append(p, rec...)
	return appendMsg(b, p)
}

// AppendHeartbeat frames a lag heartbeat onto b: the sealed global
// sequence plus each shard journal's byte size on the primary.
func AppendHeartbeat(b []byte, sealed int, journalBytes []int64) []byte {
	p := make([]byte, 0, 16+10*len(journalBytes))
	p = append(p, MsgHeartbeat)
	p = binary.AppendVarint(p, int64(sealed))
	p = binary.AppendUvarint(p, uint64(len(journalBytes)))
	for i := range journalBytes {
		p = binary.AppendUvarint(p, uint64(journalBytes[i]))
	}
	return appendMsg(b, p)
}

// AppendEOF frames a deliberate end-of-stream onto b.
func AppendEOF(b []byte, reason string) []byte {
	p := make([]byte, 0, 1+len(reason)+8)
	p = append(p, MsgEOF)
	p = appendStreamString(p, reason)
	return appendMsg(b, p)
}

// ParseMsg decodes one frame payload into a Msg. It never panics on
// arbitrary input and bounds every allocation — torn frames, bad CRCs,
// and truncated hand-offs are the callers' (FrameReader's) department;
// this guards the payload layer.
func ParseMsg(p []byte) (Msg, error) {
	if len(p) < 1 {
		return Msg{}, fmt.Errorf("replica: empty message")
	}
	m := Msg{Type: p[0]}
	p = p[1:]
	switch m.Type {
	case MsgHello:
		ver, sz := binary.Uvarint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated hello version")
		}
		p = p[sz:]
		m.Ver = int(ver)
		var err error
		if m.BootID, p, err = readStreamString(p); err != nil {
			return m, err
		}
		shards, sz := binary.Uvarint(p)
		if sz <= 0 || shards == 0 || shards > maxShards {
			return m, fmt.Errorf("replica: bad hello shard count")
		}
		p = p[sz:]
		m.Shards = int(shards)
		if len(p) < 1 {
			return m, fmt.Errorf("replica: truncated hello stream kind")
		}
		m.Stream, p = p[0], p[1:]
		from, sz := binary.Varint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated hello resume point")
		}
		m.From = int(from)
	case MsgJournalRec:
		shard, sz := binary.Uvarint(p)
		if sz <= 0 || shard >= maxShards {
			return m, fmt.Errorf("replica: bad journal record shard")
		}
		m.Shard = int(shard)
		m.Rec = p[sz:]
	case MsgEOF:
		var err error
		if m.Reason, _, err = readStreamString(p); err != nil {
			return m, err
		}
	case MsgHeartbeat:
		sealed, sz := binary.Varint(p)
		if sz <= 0 {
			return m, fmt.Errorf("replica: truncated heartbeat sealed seq")
		}
		p = p[sz:]
		m.Sealed = int(sealed)
		n, sz := binary.Uvarint(p)
		if sz <= 0 || n > maxShards {
			return m, fmt.Errorf("replica: bad heartbeat shard count")
		}
		p = p[sz:]
		m.JournalBytes = make([]int64, n)
		for i := uint64(0); i < n; i++ {
			jb, sz := binary.Uvarint(p)
			if sz <= 0 {
				return m, fmt.Errorf("replica: truncated heartbeat journal bytes")
			}
			p = p[sz:]
			m.JournalBytes[i] = int64(jb)
		}
	default:
		return m, fmt.Errorf("replica: unknown message type %d", m.Type)
	}
	return m, nil
}

// JournalSeq reads the global sequence number off an encoded ingest
// journal record without decoding the rest — what the source's merge
// and the follower's lag tracking need.
func JournalSeq(p []byte) (int, error) {
	seq, sz := binary.Uvarint(p)
	if sz <= 0 {
		return 0, fmt.Errorf("replica: truncated journal record seq")
	}
	return int(seq), nil
}

// Reader decodes protocol messages from a byte stream: journal framing
// outside, ParseMsg inside. Next returns io.EOF at a clean frame
// boundary and wal.ErrTornFrame on a torn or corrupt frame.
type Reader struct {
	fr *wal.FrameReader
}

// NewReader wraps an incremental frame reader.
func NewReader(fr *wal.FrameReader) *Reader { return &Reader{fr: fr} }

// Next returns the next message. Msg buffers alias the reader's internal
// buffer — copy to retain across calls.
func (r *Reader) Next() (Msg, error) {
	payload, err := r.fr.Next()
	if err != nil {
		return Msg{}, err
	}
	return ParseMsg(payload)
}
