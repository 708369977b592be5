package replica

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grca/internal/wal"
)

// decodeStream parses a full byte stream into messages (deep-copied).
func decodeStream(t *testing.T, b []byte) []Msg {
	t.Helper()
	r := NewReader(wal.NewFrameReader(bytes.NewReader(b)))
	var out []Msg
	for {
		m, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decode stream: %v (after %d msgs)", err, len(out))
		}
		m.Rec = append([]byte(nil), m.Rec...)
		out = append(out, m)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	var b []byte
	b = AppendHello(b, "boot-1", 4, StreamJournal, 17)
	b = AppendJournalRec(b, 2, []byte("journal-bytes"))
	b = AppendHeartbeat(b, 41, []int64{10, 20})
	b = AppendEOF(b, "done")

	msgs := decodeStream(t, b)
	if len(msgs) != 4 {
		t.Fatalf("got %d messages, want 4", len(msgs))
	}
	h := msgs[0]
	if h.Type != MsgHello || h.Ver != ProtocolVersion || h.BootID != "boot-1" ||
		h.Shards != 4 || h.Stream != StreamJournal || h.From != 17 {
		t.Fatalf("hello mismatch: %+v", h)
	}
	if j := msgs[1]; j.Type != MsgJournalRec || j.Shard != 2 || string(j.Rec) != "journal-bytes" {
		t.Fatalf("journal rec mismatch: %+v", j)
	}
	hb := msgs[2]
	if hb.Type != MsgHeartbeat || hb.Sealed != 41 ||
		len(hb.JournalBytes) != 2 || hb.JournalBytes[1] != 20 {
		t.Fatalf("heartbeat mismatch: %+v", hb)
	}
	if e := msgs[3]; e.Type != MsgEOF || e.Reason != "done" {
		t.Fatalf("eof mismatch: %+v", e)
	}
}

func TestReaderTornStream(t *testing.T) {
	var b []byte
	b = AppendHello(b, "boot", 1, StreamJournal, 0)
	b = AppendJournalRec(b, 0, []byte{1, 2, 3})
	for cut := 1; cut < len(b); cut++ {
		r := NewReader(wal.NewFrameReader(bytes.NewReader(b[:cut])))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err != io.EOF && err != wal.ErrTornFrame {
			t.Fatalf("cut %d: err = %v, want EOF or ErrTornFrame", cut, err)
		}
	}
	// Flipped byte inside a frame body must surface as a torn frame.
	bad := append([]byte(nil), b...)
	bad[len(bad)-2] ^= 0xff
	r := NewReader(wal.NewFrameReader(bytes.NewReader(bad)))
	var err error
	for err == nil {
		_, err = r.Next()
	}
	if err != wal.ErrTornFrame {
		t.Fatalf("corrupt frame: err = %v, want ErrTornFrame", err)
	}
}

// TestRegistryGrace: a disconnected follower stays listed through the
// grace window, then expires; a connected one never does.
func TestRegistryGrace(t *testing.T) {
	r := NewRegistry()
	r.grace = 30 * time.Millisecond
	r.Attach("f1")
	r.NoteJournal("f1", 40)
	r.Attach("f2")
	r.NoteJournal("f2", 10)
	r.Detach("f2")
	if st := r.Status(); len(st) != 2 || st[1].ID != "f2" || st[1].Connected || st[1].JournalSeq != 10 {
		t.Fatalf("graced status = %+v, want f2 listed, disconnected, at seq 10", st)
	}
	time.Sleep(60 * time.Millisecond)
	st := r.Status()
	if len(st) != 1 || st[0].ID != "f1" || !st[0].Connected || st[0].JournalSeq != 40 {
		t.Fatalf("status = %+v, want connected f1 only", st)
	}
}

// collectWriter is a goroutine-safe sink for a live stream under test.
type collectWriter struct {
	mu sync.Mutex
	b  []byte
}

func (w *collectWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *collectWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.b...)
}

func TestServeJournalMergeOrder(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "j0.log"), filepath.Join(dir, "j1.log")}
	appendJ := func(shard, seq int, body string) {
		j, err := wal.OpenJournal(paths[shard])
		if err != nil {
			t.Fatal(err)
		}
		var rec []byte
		rec = appendUvarintTest(rec, seq)
		rec = append(rec, body...)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	// Shard 0 owns seqs 0 and 2; shard 1 owns seq 1. Sealed starts at
	// [-1,-1]: nothing may be emitted past a silent shard.
	appendJ(0, 0, "a")
	appendJ(0, 2, "c")

	var sealedMu sync.Mutex
	sealed := []int{-1, -1}
	reg := NewRegistry()
	src := NewSource(SourceConfig{
		BootID: "boot-m", Shards: 2,
		JournalPath: func(i int) string { return paths[i] },
		Sealed: func() []int {
			sealedMu.Lock()
			defer sealedMu.Unlock()
			return append([]int(nil), sealed...)
		},
		Registry: reg,
		Poll:     2 * time.Millisecond,
	})
	w := &collectWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- src.ServeJournal(w, nil, "t", -1, stop) }()

	countJ := func() int {
		n := 0
		for _, m := range decodeStream(t, w.bytes()) {
			if m.Type == MsgJournalRec {
				n++
			}
		}
		return n
	}
	waitJ := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for countJ() < want {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d journal recs (have %d)", want, countJ())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Nothing is sealed: seq 0 must be held (shard 1 might still get a
	// lower seq... no — but the merge can't know 0 is shard-global-min
	// until shard 1 seals past it or shows a record).
	time.Sleep(30 * time.Millisecond)
	if n := countJ(); n != 0 {
		t.Fatalf("emitted %d records before any seal", n)
	}
	// Seal shard 1 at 0: seq 0 may go; seq 2 still blocked (shard 1 could
	// own seq 1 or 2).
	sealedMu.Lock()
	sealed[1] = 0
	sealedMu.Unlock()
	waitJ(1)
	// Shard 1's record for seq 1 arrives: with both queues non-empty the
	// merge emits 1, then stalls on 2 until shard 1 seals past it.
	appendJ(1, 1, "b")
	waitJ(2)
	time.Sleep(20 * time.Millisecond)
	if n := countJ(); n != 2 {
		t.Fatalf("emitted %d records, want exactly 2 before sealing", n)
	}
	sealedMu.Lock()
	sealed[1] = 2
	sealedMu.Unlock()
	waitJ(3)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var got []int
	var shards []int
	for _, m := range decodeStream(t, w.bytes()) {
		if m.Type != MsgJournalRec {
			continue
		}
		seq, err := JournalSeq(m.Rec)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seq)
		shards = append(shards, m.Shard)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("merged seqs = %v, want [0 1 2]", got)
	}
	if shards[0] != 0 || shards[1] != 1 || shards[2] != 0 {
		t.Fatalf("owner shards = %v, want [0 1 0]", shards)
	}
}

// TestServeJournalBudgetedMerge: with a per-pass read budget of one
// frame, a shard whose read stopped short still gates the merge even
// though its watermark is sealed past everything — so the stream is the
// exact global seq order for every shard count, an oversized frame
// included.
func TestServeJournalBudgetedMerge(t *testing.T) {
	for shards := 2; shards <= 4; shards++ {
		dir := t.TempDir()
		paths := make([]string, shards)
		journals := make([]*wal.Journal, shards)
		for i := range paths {
			paths[i] = filepath.Join(dir, fmt.Sprintf("j%d.log", i))
			j, err := wal.OpenJournal(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			journals[i] = j
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		const n = 60
		owner := make([]int, n)
		bodies := make([]string, n)
		for seq := 0; seq < n; seq++ {
			owner[seq] = rng.Intn(shards)
			bodies[seq] = fmt.Sprintf("body-%d", seq)
			if seq == 17 {
				bodies[seq] = strings.Repeat("x", tailBuf+1000)
			}
			rec := appendUvarintTest(nil, seq)
			if err := journals[owner[seq]].Append(append(rec, bodies[seq]...)); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range journals {
			j.Close()
		}
		sealed := make([]int, shards)
		for i := range sealed {
			sealed[i] = n - 1
		}
		src := NewSource(SourceConfig{
			BootID: "boot-b", Shards: shards,
			JournalPath: func(i int) string { return paths[i] },
			Sealed:      func() []int { return append([]int(nil), sealed...) },
			Registry:    NewRegistry(),
			Poll:        2 * time.Millisecond,
		})
		src.budget = 1 // one frame per shard per pass
		w := &collectWriter{}
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() { done <- src.ServeJournal(w, nil, "t", -1, stop) }()
		recs := func() []Msg {
			var out []Msg
			for _, m := range decodeStream(t, w.bytes()) {
				if m.Type == MsgJournalRec {
					out = append(out, m)
				}
			}
			return out
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(recs()) < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		got := recs()
		if len(got) != n {
			t.Fatalf("shards=%d: streamed %d records, want %d", shards, len(got), n)
		}
		for i, m := range got {
			seq, err := JournalSeq(m.Rec)
			if err != nil {
				t.Fatal(err)
			}
			if seq != i || m.Shard != owner[i] || !strings.HasSuffix(string(m.Rec), bodies[i]) {
				t.Fatalf("shards=%d: record %d is seq %d from shard %d, want seq %d from shard %d", shards, i, seq, m.Shard, i, owner[i])
			}
		}
	}
}

// TestServeJournalWatermarkBeforeFill pins the sample order inside the
// merge loop: the sealed watermark must be snapshotted BEFORE the file
// tails are read. The Sealed callback here plays the role of a shard
// applier finishing a commit between the two steps — it appends a
// record to shard 0's journal and advances the watermark past it in
// the same breath. If the source sampled sealed after the fill, that
// pass would see shard 0's queue empty, sealed past the new record,
// emit the later sequences, and the resume skip would then silently
// drop the record on the next pass (a permanently lagging follower).
func TestServeJournalWatermarkBeforeFill(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "j0.log"), filepath.Join(dir, "j1.log")}
	appendJ := func(shard, seq int, body string) {
		j, err := wal.OpenJournal(paths[shard])
		if err != nil {
			t.Fatal(err)
		}
		var rec []byte
		rec = appendUvarintTest(rec, seq)
		rec = append(rec, body...)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
	// Shard 0 owns seqs 0 and 3 (3 lands mid-stream); shard 1 owns the
	// rest and is fully durable from the start.
	appendJ(0, 0, "a")
	appendJ(1, 1, "b")
	appendJ(1, 2, "c")
	appendJ(1, 4, "e")

	var mu sync.Mutex
	calls := 0
	appended := false
	reg := NewRegistry()
	src := NewSource(SourceConfig{
		BootID: "boot-w", Shards: 2,
		JournalPath: func(i int) string { return paths[i] },
		Sealed: func() []int {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 1 {
				// Seq 3 is still in flight toward shard 0's journal.
				return []int{0, 4}
			}
			if !appended {
				// The commit completes: seq 3 becomes durable and shard
				// 0's watermark moves past it, both "during" this call.
				appended = true
				appendJ(0, 3, "d")
			}
			return []int{4, 4}
		},
		Registry: reg,
		Poll:     2 * time.Millisecond,
	})
	w := &collectWriter{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- src.ServeJournal(w, nil, "t", -1, stop) }()

	seqs := func() []int {
		var got []int
		for _, m := range decodeStream(t, w.bytes()) {
			if m.Type != MsgJournalRec {
				continue
			}
			seq, err := JournalSeq(m.Rec)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, seq)
		}
		return got
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(seqs()) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("stream stalled at %v, want [0 1 2 3 4] — a watermark sampled after the fill pass drops late-filled records", seqs())
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := seqs()
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("merged seqs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged seqs = %v, want %v", got, want)
		}
	}
}

func TestClientStreamsAndReconnects(t *testing.T) {
	// First request fails; second serves three messages then EOF. The
	// client must reconnect, deliver all messages, and honor Stop.
	var mu sync.Mutex
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		var b []byte
		b = AppendHello(b, "boot-c", 1, StreamJournal, 0)
		b = AppendJournalRec(b, 0, []byte{0, 'x'})
		b = AppendEOF(b, "bye")
		w.Write(b) //nolint:errcheck // test server
	}))
	defer srv.Close()

	got := make(chan Msg, 16)
	c := &Client{
		URL:     func(from int) string { return fmt.Sprintf("%s/stream?from=%d", srv.URL, from) },
		From:    func() int { return 0 },
		Handle:  func(m Msg) error { got <- m; return nil },
		Backoff: 5 * time.Millisecond,
	}
	c.Start()
	defer func() { c.Stop(); c.Wait() }()

	deadline := time.After(5 * time.Second)
	var seen []Msg
	for len(seen) < 2 {
		select {
		case m := <-got:
			seen = append(seen, m)
		case <-deadline:
			t.Fatalf("timed out; saw %d messages", len(seen))
		}
	}
	if seen[0].Type != MsgHello || seen[0].BootID != "boot-c" {
		t.Fatalf("first message %+v, want hello", seen[0])
	}
	if seen[1].Type != MsgJournalRec {
		t.Fatalf("second message %+v, want journal rec", seen[1])
	}
	mu.Lock()
	if calls < 2 {
		t.Fatalf("calls = %d, want a reconnect after the 503", calls)
	}
	mu.Unlock()
}

func TestClientFatalStops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b []byte
		b = AppendHello(b, "other-boot", 1, StreamJournal, 0)
		w.Write(b) //nolint:errcheck // test server
	}))
	defer srv.Close()

	errs := make(chan error, 16)
	c := &Client{
		URL:  func(from int) string { return srv.URL },
		From: func() int { return 0 },
		Handle: func(m Msg) error {
			if m.Type == MsgHello && m.BootID != "boot-c" {
				return Fatal(fmt.Errorf("boot ID mismatch"))
			}
			return nil
		},
		Backoff: time.Millisecond,
		OnState: func(err error) {
			if err != nil {
				errs <- err
			}
		},
	}
	c.Start()
	waited := make(chan struct{})
	go func() { c.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("client did not stop on fatal error")
	}
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("expected the fatal error reported")
		}
	default:
		t.Fatal("no error reported via OnState")
	}
}

func appendUvarintTest(b []byte, v int) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
