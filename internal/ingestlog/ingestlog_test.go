package ingestlog

import (
	"path/filepath"
	"testing"

	"grca/internal/wal"
)

func TestRecordRoundTrip(t *testing.T) {
	r, err := Decode(Encode(1234, EventsWire, "syslog", []byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 1234 || r.Kind != EventsWire || r.Source != "syslog" || string(r.Body) != "\x01\x02\x03" {
		t.Fatalf("decoded %+v", r)
	}
	for _, bad := range [][]byte{nil, {0x80}, {5}, {5, Feed, 9, 'a'}} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%v) accepted a truncated record", bad)
		}
	}
}

// TestReplayRefusesSeqRegression: a journal whose sequences do not
// ascend cannot be merged in order, so replay refuses it.
func TestReplayRefusesSeqRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, err := wal.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{0, 2, 1} {
		if err := j.Append(Encode(seq, Finalize, "", nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Replay([]string{path}, func(int, Record) error { return nil }); err == nil {
		t.Fatal("replayed a journal whose sequences regress")
	}
}
