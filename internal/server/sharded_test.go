package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/ingestlog"
	"grca/internal/platform"
	"grca/internal/wal"
	"grca/internal/wire"
)

// lifecycleOutcome captures everything externally observable about one
// complete life of the service: every ingest response body in order,
// the merged store digest, and the query surfaces the Result Browser
// and the diagnosis API serve.
type lifecycleOutcome struct {
	ingest    [][]byte
	digest    string
	events    int
	diagnose  map[string][]byte
	breakdown map[string][]byte
}

// lifecycleBatches builds the post-finalize event stream the harness
// replays identically against every shard count: EBGPFlap symptoms on
// real PERs (co-sharded with their PoP components by the lattice)
// interleaved with synthetic ticks on unknown routers (spread across
// shards by hash), so every batch exercises the cross-shard split and
// the streaming-diagnosis path.
func lifecycleBatches(b platform.Bundle) [][]EventJSON {
	at := b.Start.Add(b.Duration).Add(time.Hour)
	var batches [][]EventJSON
	for i := 0; i < 6; i++ {
		t0 := at.Add(time.Duration(i) * 10 * time.Minute)
		var evs []EventJSON
		evs = append(evs, EventJSON{
			Name: event.EBGPFlap, Start: t0, End: t0.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor",
				A: fmt.Sprintf("pop%02d-per%d", i%2, 1+i%2), B: fmt.Sprintf("10.99.%d.1", i)},
		})
		for j := 0; j < 8; j++ {
			evs = append(evs, EventJSON{
				Name: "synthetic tick", Start: t0.Add(time.Second), End: t0.Add(time.Second),
				Loc: LocationJSON{Type: "router", A: fmt.Sprintf("load-r%d", i*8+j)},
			})
		}
		batches = append(batches, evs)
	}
	// A far-future tick drains every pending grace window so the last
	// responses carry the remaining streaming diagnoses.
	drain := at.Add(96 * time.Hour)
	batches = append(batches, []EventJSON{{
		Name: "synthetic tick", Start: drain, End: drain,
		Loc: LocationJSON{Type: "router", A: "load-r0"},
	}})
	return batches
}

// driveLifecycle runs the full service life at one shard count and
// captures the outcome. The caller owns dir (reopened by restart tests).
func driveLifecycle(t *testing.T, dir string, b platform.Bundle, shards int) lifecycleOutcome {
	t.Helper()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	out := lifecycleOutcome{diagnose: map[string][]byte{}, breakdown: map[string][]byte{}}
	record := func(code int, body []byte, what string) {
		if code != http.StatusOK {
			t.Fatalf("%s (shards=%d): %d %s", what, shards, code, body)
		}
		out.ingest = append(out.ingest, body)
	}
	for _, src := range feedOrder {
		feed, ok := b.Feeds[src]
		if !ok {
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed})
		record(code, body, "feed "+src)
	}
	code, body := post(t, ts, "/v1/finalize", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("finalize (shards=%d): %d %s", shards, code, body)
	}
	for i, evs := range lifecycleBatches(b) {
		if i%2 == 1 {
			// Odd batches ride the binary wire format so both journaled
			// event representations are under differential test.
			ins, err := decodeEvents(evs)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/ingest", wire.ContentType,
				bytes.NewReader(wire.AppendEvents(nil, ins)))
			if err != nil {
				t.Fatal(err)
			}
			wbody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			record(resp.StatusCode, wbody, fmt.Sprintf("wire event batch %d", i))
			continue
		}
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
		record(code, body, fmt.Sprintf("event batch %d", i))
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose %s (shards=%d): %d %s", app, shards, code, body)
		}
		out.diagnose[app] = body
		code, body = get(t, ts, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("breakdown %s (shards=%d): %d %s", app, shards, code, body)
		}
		out.breakdown[app] = body
	}
	out.digest = wal.StoreDigest(s.Store())
	out.events = s.Store().Len()
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedParityDifferential is the sharded pipeline's correctness
// gate: the same corpus driven through 1, 2, and 4 shards must be
// externally indistinguishable — every ingest response byte-identical
// (streaming diagnosis lists included), the merged store digest equal,
// and the diagnose/breakdown surfaces byte-identical.
func TestShardedParityDifferential(t *testing.T) {
	_, b := testBundle(t)
	base := driveLifecycle(t, t.TempDir(), b, 1)
	if base.events == 0 {
		t.Fatal("baseline stored no events")
	}
	for _, n := range []int{2, 4} {
		got := driveLifecycle(t, t.TempDir(), b, n)
		if got.digest != base.digest {
			t.Errorf("shards=%d: merged store digest differs (%d vs %d events)",
				n, got.events, base.events)
		}
		if len(got.ingest) != len(base.ingest) {
			t.Fatalf("shards=%d: %d ingest responses, want %d", n, len(got.ingest), len(base.ingest))
		}
		for i := range base.ingest {
			if !bytes.Equal(got.ingest[i], base.ingest[i]) {
				t.Errorf("shards=%d: ingest response %d differs:\n  got  %s\n  want %s",
					n, i, got.ingest[i], base.ingest[i])
			}
		}
		for app, want := range base.diagnose {
			if !bytes.Equal(got.diagnose[app], want) {
				t.Errorf("shards=%d: diagnose %s differs", n, app)
			}
		}
		for app, want := range base.breakdown {
			if !bytes.Equal(got.breakdown[app], want) {
				t.Errorf("shards=%d: breakdown %s differs", n, app)
			}
		}
	}
}

// TestShardedRestartDropsLegacyWAL: a sharded data dir recovers
// byte-identically after a clean restart, and after an upgrade from the
// event-WAL layout: whatever stale wal/ and snap/ directories sit in the
// shard dirs, Open deletes them and the journals alone rebuild the same
// store, stable across one more restart.
func TestShardedRestartDropsLegacyWAL(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	const shards = 3
	before := driveLifecycle(t, dir, b, shards)

	reopen := func(what string) string {
		t.Helper()
		s, err := Open(Config{DataDir: dir, Bundle: b, Shards: shards})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		rec := s.Recovery()
		if !rec.Finalized || rec.Shards != shards {
			t.Fatalf("%s: recovery = %+v", what, rec)
		}
		d := wal.StoreDigest(s.Store())
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d
	}

	if d := reopen("clean restart"); d != before.digest {
		t.Fatalf("clean restart changed the store digest")
	}
	for _, stale := range [][]int{{1}, {0, 2}, {0, 1, 2}} {
		for _, i := range stale {
			for _, sub := range []string{"wal", "snap"} {
				sd := filepath.Join(dir, fmt.Sprintf("shard-%d", i), sub)
				if err := os.MkdirAll(sd, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(sd, "seg-0000000000000000.log"), []byte("stale"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		what := fmt.Sprintf("stale WAL dirs in shards %v", stale)
		if d := reopen(what); d != before.digest {
			t.Fatalf("%s: recovered digest differs", what)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "shard-*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Base(e) != "journal.log" {
				t.Fatalf("%s: %s survived Open; a shard dir holds only journal.log", what, e)
			}
		}
		if d := reopen(what + " (second restart)"); d != before.digest {
			t.Fatalf("%s: digest not stable across a second restart", what)
		}
	}
}

// TestShardedConcurrentIngest hammers a 4-shard server from parallel
// clients (retrying 429s) and checks the pipeline's accounting: the
// store grows by exactly the acknowledged events, and a restart
// recovers the identical digest — under the race detector this is also
// the concurrency soak for dispatcher, appliers, and finisher.
func TestShardedConcurrentIngest(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	loadAndFinalize(t, ts, b)
	before := s.Store().Len()

	const workers, batches, perBatch = 8, 30, 4
	at := b.Start.Add(b.Duration).Add(time.Hour)
	var acked atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				evs := make([]EventJSON, perBatch)
				for j := range evs {
					evs[j] = EventJSON{
						Name:  "synthetic tick",
						Start: at.Add(time.Duration(i) * time.Second),
						End:   at.Add(time.Duration(i) * time.Second),
						Loc:   LocationJSON{Type: "router", A: fmt.Sprintf("load-w%d-r%d", w, j)},
					}
				}
				data, err := json.Marshal(IngestRequest{Events: evs})
				if err != nil {
					t.Error(err)
					return
				}
				for {
					resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(data))
					if err != nil {
						t.Error(err)
						return
					}
					code := resp.StatusCode
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						t.Errorf("worker %d batch %d: status %d", w, i, code)
						return
					}
					acked.Add(perBatch)
					break
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := s.Store().Len()-before, int(acked.Load()); got != want {
		t.Fatalf("store grew by %d, acknowledged %d", got, want)
	}
	digest := wal.StoreDigest(s.Store())
	ts.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := wal.StoreDigest(s2.Store()); got != digest {
		t.Fatal("restart after concurrent ingest changed the store digest")
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountPinned: a data directory refuses to reopen with a
// different shard count — the journals' interleave is a function of N.
func TestShardCountPinned(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4}); err == nil {
		t.Fatal("reopening a 2-shard dir with 4 shards succeeded")
	}
}

// TestLegacyLayoutRefusesSharding: a pre-sharding data directory (state
// at the root, no SHARDS marker) is adopted as single-shard only.
// Opening it with more shards must refuse up front — stamping a
// multi-shard marker would silently orphan the root-level journal under
// the shard-<i>/ layout and pin the directory there.
func TestLegacyLayoutRefusesSharding(t *testing.T) {
	_, b := testBundle(t)
	dir := t.TempDir()
	before := driveLifecycle(t, dir, b, 1)
	// Simulate a directory created before the marker existed.
	if err := os.Remove(filepath.Join(dir, "SHARDS")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir, Bundle: b, Shards: 4}); err == nil {
		t.Fatal("opening a legacy single-shard dir with 4 shards succeeded")
	}
	// The refusal must not have stamped a marker: single-shard adoption
	// still recovers the full state.
	s, err := Open(Config{DataDir: dir, Bundle: b, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) //nolint:errcheck // test teardown
	if got := wal.StoreDigest(s.Store()); got != before.digest {
		t.Fatal("single-shard adoption of a legacy dir changed the store digest")
	}
}

// TestShardedTornJournalTail: a torn frame at the tail of a shard's
// journal (the batch never acknowledged) must truncate deterministically
// at the last intact frame and leave a consistent, digest-stable store
// behind — whether every shard's tail is torn, or only the middle one of
// three journals whose sequences interleave.
func TestShardedTornJournalTail(t *testing.T) {
	_, b := testBundle(t)
	for _, tc := range []struct {
		shards int
		torn   []int
	}{{2, []int{0, 1}}, {3, []int{1}}} {
		dir := t.TempDir()
		before := driveLifecycle(t, dir, b, tc.shards)
		paths := make([]string, tc.shards)
		for i := range paths {
			paths[i] = journalPath(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		}
		if tc.shards == 3 {
			assertInterleaved(t, paths)
		}
		sizes := make([]int64, tc.shards)
		for _, i := range tc.torn {
			st, err := os.Stat(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			sizes[i] = st.Size()
			// A torn next frame: its header claims more payload than
			// reached the disk.
			f, err := os.OpenFile(paths[i], os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(wal.AppendFrame(nil, []byte("a batch cut short"))[:13]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(Config{DataDir: dir, Bundle: b, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		got := wal.StoreDigest(s.Store())
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got != before.digest {
			t.Fatalf("shards=%d: torn journal tails changed the recovered store", tc.shards)
		}
		for _, i := range tc.torn {
			if st, err := os.Stat(paths[i]); err != nil || st.Size() != sizes[i] {
				t.Fatalf("shards=%d: shard %d journal not truncated back to %d bytes", tc.shards, i, sizes[i])
			}
		}
	}
}

// assertInterleaved fails unless the journals' sequences interleave: some
// shard holds a sequence between two of another shard's, so the replay
// truly merges rather than concatenates.
func assertInterleaved(t *testing.T, paths []string) {
	t.Helper()
	owner := map[int]int{}
	for i, p := range paths {
		for _, seq := range journalSeqs(t, p) {
			owner[seq] = i
		}
	}
	switches := 0
	for seq := 1; seq < len(owner); seq++ {
		if owner[seq] != owner[seq-1] {
			switches++
		}
	}
	if switches < 2 {
		t.Fatalf("journal sequences switch shards %d times; the merge is not exercised", switches)
	}
}

// crashBatch is the i-th batch of the crash-point property test: ticks
// on routers that hash across the shards.
func crashBatch(b platform.Bundle, seed int64, i int) []EventJSON {
	at := b.Start.Add(b.Duration).Add(time.Duration(i) * time.Minute)
	evs := make([]EventJSON, 4)
	for j := range evs {
		evs[j] = EventJSON{
			Name: "synthetic tick", Start: at, End: at.Add(time.Second),
			Loc: LocationJSON{Type: "router", A: fmt.Sprintf("cp-%d-r%d", seed, i*4+j)},
		}
	}
	return evs
}

// ingestBatches posts each batch and fails on anything but 200.
func ingestBatches(t *testing.T, s *Server, batches [][]EventJSON) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i, evs := range batches {
		if code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs}); code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, code, body)
		}
	}
}

// shardDigests returns the merged and per-shard store digests.
func shardDigests(s *Server) []string {
	out := []string{wal.StoreDigest(s.Store())}
	for _, sh := range s.shards {
		out = append(out, wal.StoreDigest(sh.st))
	}
	return out
}

// TestJournalCrashPointProperty is the crash-point property of the one
// durable log. Acknowledged batches are followed by batches whose bytes
// stand in for an unsynced suffix; each shard journal is then cut at a
// seeded offset after the last acknowledged batch — mid-header,
// mid-payload, on a frame boundary, or not at all. Recovery must keep
// every acknowledged batch, equal (merged and per shard) a clean server
// that ingested exactly the surviving batches in sequence order, and
// append the next batch cleanly after the truncation.
func TestJournalCrashPointProperty(t *testing.T) {
	_, b := testBundle(t)
	const acked, unacked = 5, 6
	for _, shards := range []int{1, 3} {
		lost := 0
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(shards)))
			var batches [][]EventJSON
			for i := 0; i < acked+unacked; i++ {
				batches = append(batches, crashBatch(b, seed, i))
			}
			dir := t.TempDir()
			cfg := Config{DataDir: dir, Bundle: b, Shards: shards}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestBatches(t, s, batches[:acked])
			paths := make([]string, shards)
			durable := make([]int64, shards)
			for i := range paths {
				paths[i] = journalPath(shardDir(dir, shards, i))
				if durable[i], err = fileSizeOf(paths[i]); err != nil {
					t.Fatal(err)
				}
			}
			ingestBatches(t, s, batches[acked:])
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, p := range paths {
				cutSuffix(t, p, durable[i], rng)
			}

			// The surviving batches, read off the cut journals without
			// touching them: recovery does its own truncation.
			survived := map[int]bool{}
			for _, p := range paths {
				for _, seq := range journalSeqs(t, p) {
					survived[seq] = true
				}
			}
			var keep [][]EventJSON
			for seq := range batches {
				switch {
				case survived[seq]:
					keep = append(keep, batches[seq])
				case seq < acked:
					t.Fatalf("shards=%d seed=%d: the cut reached acknowledged batch %d", shards, seed, seq)
				default:
					lost++
				}
			}

			s2, err := Open(cfg)
			if err != nil {
				t.Fatalf("shards=%d seed=%d: recovery: %v", shards, seed, err)
			}
			if got := s2.Recovery().Batches; got != len(keep) {
				t.Fatalf("shards=%d seed=%d: recovered %d batches, %d survived the cut", shards, seed, got, len(keep))
			}
			got := shardDigests(s2)
			ref, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			ingestBatches(t, ref, keep)
			want := shardDigests(ref)
			if err := ref.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d seed=%d: digest %d differs from a clean run over the %d surviving batches", shards, seed, i, len(keep))
				}
			}

			// The next batch appends after the truncation and replays
			// without another cut.
			ingestBatches(t, s2, [][]EventJSON{crashBatch(b, seed, 99)})
			after := shardDigests(s2)
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			sizes := make([]int64, shards)
			for i, p := range paths {
				if sizes[i], err = fileSizeOf(p); err != nil {
					t.Fatal(err)
				}
			}
			s3, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if s3.Recovery().Batches != len(keep)+1 || shardDigests(s3)[0] != after[0] {
				t.Fatalf("shards=%d seed=%d: the post-recovery batch did not replay cleanly", shards, seed)
			}
			if err := s3.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, p := range paths {
				if sz, err := fileSizeOf(p); err != nil || sz != sizes[i] {
					t.Fatalf("shards=%d seed=%d: replay truncated shard %d after a clean append", shards, seed, i)
				}
			}
		}
		t.Logf("shards=%d: %d unacknowledged batches lost over 50 seeds", shards, lost)
		if lost == 0 {
			t.Fatalf("shards=%d: no cut lost a batch; the property was never exercised", shards)
		}
	}
}

// journalSeqs returns the sequences of the intact frames at the front of
// the journal at path, read without modifying it.
func journalSeqs(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var out []int
	for {
		p, rest, ok := wal.ReadFrame(data)
		if !ok {
			return out
		}
		r, err := ingestlog.Decode(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r.Seq)
		data = rest
	}
}

func fileSizeOf(path string) (int64, error) {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// cutSuffix truncates the journal at path somewhere in [from, size]:
// inside a frame header, inside a payload, on a frame boundary, or not
// at all, drawn from rng.
func cutSuffix(t *testing.T, path string, from int64, rng *rand.Rand) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil || int64(len(data)) <= from {
		return // nothing after the acknowledged prefix on this shard
	}
	var starts []int64 // frame starts in the suffix
	rest := data[from:]
	off := from
	for len(rest) > 0 {
		p, r2, ok := wal.ReadFrame(rest)
		if !ok {
			t.Fatalf("%s: journal suffix is not framed", path)
		}
		starts = append(starts, off)
		off += int64(wal.FrameHeader + len(p))
		rest = r2
	}
	k := starts[rng.Intn(len(starts))]
	var cut int64
	switch rng.Intn(4) {
	case 0: // mid-header
		cut = k + 1 + rng.Int63n(wal.FrameHeader-1)
	case 1: // mid-payload (or the header's end for a tiny frame)
		end := off
		for _, st := range starts {
			if st > k {
				end = st
				break
			}
		}
		cut = k + wal.FrameHeader + rng.Int63n(end-k-wal.FrameHeader)
	case 2: // on a boundary
		cut = k
	default: // the whole suffix reached the disk
		cut = int64(len(data))
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
}
