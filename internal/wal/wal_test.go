package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// genPayloads builds deterministic records of varied sizes, empty and
// multi-frame-buffer ones included.
func genPayloads(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		size := rng.Intn(300)
		if i%7 == 3 {
			size = 0
		}
		p := make([]byte, size)
		rng.Read(p)
		out[i] = p
	}
	return out
}

// replayAll returns every record ReplayJournal delivers from path.
func replayAll(t *testing.T, path string) ([][]byte, int64) {
	t.Helper()
	var got [][]byte
	trunc, err := ReplayJournal(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, trunc
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// writeJournal appends payloads to a fresh journal at path, fsyncing per
// record, and returns the file size after each one.
func writeJournal(t *testing.T, path string, payloads [][]byte) []int64 {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int64, len(payloads))
	var off int64
	for i, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
		off += int64(frameHeader + len(p))
		ends[i] = off
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return ends
}

func TestRoundtripCleanClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	if got, trunc := replayAll(t, path); len(got) != 0 || trunc != 0 {
		t.Fatalf("missing journal replayed %d records, truncated %d", len(got), trunc)
	}
	first := genPayloads(1, 500)
	writeJournal(t, path, first)
	got, trunc := replayAll(t, path)
	if trunc != 0 || !samePayloads(got, first) {
		t.Fatalf("replayed %d records (truncated %d), want the %d appended", len(got), trunc, len(first))
	}
	// Reopening appends after the existing records.
	more := genPayloads(2, 50)
	writeJournal(t, path, more)
	got, _ = replayAll(t, path)
	if !samePayloads(got, append(append([][]byte(nil), first...), more...)) {
		t.Fatal("reopened journal did not append after its existing records")
	}
}

// TestCrashRecoveryProperty is the torn-write property test: the journal
// is cut at every byte offset (mid-header, mid-payload, and on frame
// boundaries) and at a corrupted byte, and replay must deliver exactly
// the records wholly before the damage, truncate the file to the end of
// the last of them, and accept appends cleanly afterwards.
func TestCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	payloads := genPayloads(3, 24)
	ends := writeJournal(t, src, payloads)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// committed returns how many records end at or before off.
	committed := func(off int64) int {
		k := 0
		for k < len(ends) && ends[k] <= off {
			k++
		}
		return k
	}
	check := func(what string, image []byte, wantK int) {
		t.Helper()
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		got, trunc := replayAll(t, path)
		if !samePayloads(got, payloads[:wantK]) {
			t.Fatalf("%s: replayed %d records, want the first %d", what, len(got), wantK)
		}
		wantSize := int64(0)
		if wantK > 0 {
			wantSize = ends[wantK-1]
		}
		if trunc != int64(len(image))-wantSize {
			t.Fatalf("%s: truncated %d bytes, want %d", what, trunc, int64(len(image))-wantSize)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != wantSize {
			t.Fatalf("%s: file left at %v bytes, want %d", what, st.Size(), wantSize)
		}
		// The next append lands right after the committed prefix.
		writeJournal(t, path, [][]byte{[]byte("next")})
		got, trunc = replayAll(t, path)
		if trunc != 0 || len(got) != wantK+1 || string(got[wantK]) != "next" {
			t.Fatalf("%s: append after truncation replayed %d records (truncated %d)", what, len(got), trunc)
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		check(fmt.Sprintf("cut at %d/%d", cut, len(data)), data[:cut], committed(int64(cut)))
	}
	// A flipped payload byte fails the CRC: replay stops before that
	// record even though intact records follow it.
	for k := range payloads {
		if len(payloads[k]) == 0 {
			continue
		}
		image := append([]byte(nil), data...)
		image[ends[k]-1] ^= 0xFF
		check(fmt.Sprintf("corrupt record %d", k), image, k)
	}
}

// TestGroupCommitCrashProperty is the crash-point property test for
// group commit: records are staged with AppendNoSync and made durable
// per group by one Sync. Whatever byte offset a crash cuts the file at,
// replay yields a prefix of the appended records that holds every group
// acknowledged (synced) at or below the cut.
func TestGroupCommitCrashProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dir := t.TempDir()
	for trial := 0; trial < 50; trial++ {
		path := filepath.Join(dir, fmt.Sprintf("group-%d.log", trial))
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		payloads := genPayloads(int64(100+trial), 60)
		var acked []int64 // file size at each group's Sync
		var ackedRecs []int
		var size int64
		for i := 0; i < len(payloads); {
			n := 1 + rng.Intn(8)
			for ; n > 0 && i < len(payloads); n-- {
				if err := j.AppendNoSync(payloads[i]); err != nil {
					t.Fatal(err)
				}
				size += int64(frameHeader + len(payloads[i]))
				i++
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, size)
			ackedRecs = append(ackedRecs, i)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		cut := rng.Int63n(size + 1)
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		got, _ := replayAll(t, path)
		if !samePayloads(got, payloads[:len(got)]) {
			t.Fatalf("trial %d: cut %d: replay is not a prefix of the appended records", trial, cut)
		}
		for g, at := range acked {
			if at <= cut && len(got) < ackedRecs[g] {
				t.Fatalf("trial %d: cut %d ≥ group %d's synced size %d, but only %d of its %d records survived",
					trial, cut, g, at, len(got), ackedRecs[g])
			}
		}
	}
}

// TestLargeFramesNotRetained: a journal record larger than the inline
// threshold still frames and replays exactly, but no buffer of its size
// stays referenced once the write returns.
func TestLargeFramesNotRetained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	payloads := [][]byte{[]byte("small"), big, []byte("after")}
	for _, p := range payloads {
		if err := j.AppendNoSync(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if cap(j.buf) > inlineFrame+frameHeader {
		t.Fatalf("journal kept a %d-byte write buffer", cap(j.buf))
	}
	if got, _ := replayAll(t, path); !samePayloads(got, payloads) {
		t.Fatalf("replayed %d records, want the %d appended", len(got), len(payloads))
	}
}

// failingReader yields its bytes, then a read error that is not EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameReaderReadErrors: a short stream is a torn frame, but a real
// read error surfaces as itself — replay must never truncate a journal
// because the disk failed a read.
func TestFrameReaderReadErrors(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	if _, err := NewFrameReader(bytes.NewReader(frame[:5])).Next(); err != ErrTornFrame {
		t.Fatalf("short frame: %v, want ErrTornFrame", err)
	}
	boom := errors.New("disk read failed")
	fr := NewFrameReader(&failingReader{data: frame[:5], err: boom})
	if _, err := fr.Next(); err != boom {
		t.Fatalf("read error mid-frame: %v, want it passed through", err)
	}
	fr = NewFrameReader(&failingReader{data: frame, err: io.EOF})
	if p, err := fr.Next(); err != nil || string(p) != "payload" {
		t.Fatalf("intact frame: %q, %v", p, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
}
