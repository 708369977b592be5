package wal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"grca/internal/event"
	"grca/internal/store"
)

// Record framing: every record — in a journal file and on a replication
// stream alike — is
//
//	uint32 LE payload length | uint32 LE CRC32C(payload) | payload
//
// The CRC is Castagnoli (CRC32C), the polynomial storage systems
// standardize on for record checksums. A record whose header is short,
// whose length is absurd, or whose CRC does not match marks the end of
// the committed prefix: recovery truncates there instead of failing.
const (
	frameHeader = 8
	// maxRecord bounds a single record so a corrupted length field cannot
	// drive a multi-gigabyte allocation during recovery.
	maxRecord = 16 << 20
)

// FrameHeader is the byte length of a record frame's header.
const FrameHeader = frameHeader

// MaxRecord bounds a single framed record; a streamed length beyond it
// is treated as corruption, exactly as recovery treats it on disk.
const MaxRecord = maxRecord

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// inlineFrame is the largest payload framed by copying into a reused
// write buffer; bigger ones are written header-then-payload.
const inlineFrame = 64 << 10

// frameHeaderOf returns the frame header for payload.
func frameHeaderOf(payload []byte) (hdr [frameHeader]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return hdr
}

// AppendFrame appends payload to b under the standard record framing.
func AppendFrame(b, payload []byte) []byte {
	hdr := frameHeaderOf(payload)
	b = append(b, hdr[:]...)
	return append(b, payload...)
}

// ReadFrame decodes one frame at the front of b, returning the payload
// and the remaining bytes. ok is false when b holds no complete, intact
// frame — the torn-tail signal.
func ReadFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeader {
		return nil, b, false
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > maxRecord || int(n) > len(b)-frameHeader {
		return nil, b, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, b, false
	}
	return payload, b[frameHeader+int(n):], true
}

// FrameReader incrementally decodes record frames from a byte stream —
// the streaming counterpart of ReadFrame, used by journal replay and the
// replication client. Next returns io.EOF at a clean frame boundary,
// ErrTornFrame when the stream ends or corrupts mid-frame, and any other
// read error as it is.
type FrameReader struct {
	br      *bufio.Reader
	hdr     [frameHeader]byte
	payload []byte
}

// ErrTornFrame reports a stream that ended or corrupted inside a frame:
// a short header, an absurd length, a truncated payload, or a CRC
// mismatch.
var ErrTornFrame = fmt.Errorf("wal: torn or corrupt frame")

// NewFrameReader wraps r for incremental frame decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// torn maps a short read inside a frame to ErrTornFrame; a real read
// error passes through, so a failing disk is never mistaken for a torn
// tail and truncated away.
func torn(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTornFrame
	}
	return err
}

// Next returns the next frame's payload. The returned slice is reused
// by the following call — copy it to retain.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, torn(err)
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[1:]); err != nil {
		return nil, torn(err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	if n > maxRecord {
		return nil, ErrTornFrame
	}
	if cap(fr.payload) < int(n) {
		fr.payload = make([]byte, n)
	}
	fr.payload = fr.payload[:n]
	if _, err := io.ReadFull(fr.br, fr.payload); err != nil {
		return nil, torn(err)
	}
	if crc32.Checksum(fr.payload, castagnoli) != binary.LittleEndian.Uint32(fr.hdr[4:8]) {
		return nil, ErrTornFrame
	}
	return fr.payload, nil
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendInstance encodes one event instance canonically (without its
// store ID). Attribute keys are sorted so the encoding is deterministic.
func appendInstance(b []byte, in *event.Instance) []byte {
	b = appendString(b, in.Name)
	b = binary.AppendVarint(b, in.Start.UnixNano())
	b = binary.AppendVarint(b, in.End.UnixNano())
	b = append(b, byte(in.Loc.Type))
	b = appendString(b, in.Loc.A)
	b = appendString(b, in.Loc.B)
	b = binary.AppendUvarint(b, uint64(len(in.Attrs)))
	if len(in.Attrs) > 0 {
		keys := make([]string, 0, len(in.Attrs))
		for k := range in.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = appendString(b, k)
			b = appendString(b, in.Attrs[k])
		}
	}
	return b
}

// StoreDigest returns a hex SHA-256 over the store's full dumped state —
// ID bounds plus every live instance in canonical encoding. Two stores
// with equal digests hold byte-identical event data; it is the
// equivalence check behind the crash-recovery and replication
// guarantees. It accepts any Store, so a merged Sharded dump digests
// comparably to a single Memory.
func StoreDigest(st store.Store) string {
	base, next, ins := st.Dump()
	h := sha256.New()
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, uint64(next))
	h.Write(buf)
	for i := range ins {
		buf = buf[:0]
		buf = binary.AppendUvarint(buf, uint64(ins[i].ID))
		buf = appendInstance(buf, &ins[i])
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
