package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"grca/internal/wal"
)

// primarySealedMin returns the primary's minimum sealed sequence — with
// the pipeline quiesced, the last sequence it committed.
func primarySealedMin(p *Server) int {
	s := p.sealer.sealed()
	m := s[0]
	for _, v := range s {
		if v < m {
			m = v
		}
	}
	return m
}

// waitReplicaCaughtUp blocks until the follower has applied every
// sealed journal sequence.
func waitReplicaCaughtUp(t *testing.T, foll, prim *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := primarySealedMin(prim)
		applied := int(foll.follower.appliedSeq.Load())
		if applied >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stalled: applied seq %d, want %d", applied, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaParityAndPromote is the replication subsystem's core
// contract at 1 and 4 shards: a follower caught up to a quiesced
// primary has byte-identical per-shard store digests and byte-identical
// diagnose/breakdown bodies, redirects writes to the primary, exposes
// lag gauges, and — promoted — becomes a primary that accepts writes.
func TestReplicaParityAndPromote(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, b := testBundle(t)
			prim, err := Open(Config{DataDir: t.TempDir(), Bundle: b, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(prim.Handler())
			loadAndFinalize(t, ts, b)
			for i, evs := range lifecycleBatches(b) {
				code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
				if code != http.StatusOK {
					t.Fatalf("event batch %d: %d %s", i, code, body)
				}
			}

			foll, err := Open(Config{
				DataDir: t.TempDir(), Bundle: b, Shards: shards,
				ReplicaOf: ts.URL, ReplicaPoll: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(foll.Handler())
			waitReplicaCaughtUp(t, foll, prim)

			// Byte-identical state: merged and per-shard digests.
			if got, want := wal.StoreDigest(foll.st), wal.StoreDigest(prim.st); got != want {
				t.Fatalf("merged store digest differs: follower %s, primary %s", got, want)
			}
			for i := range prim.shards {
				got, want := wal.StoreDigest(foll.shards[i].st), wal.StoreDigest(prim.shards[i].st)
				if got != want {
					t.Fatalf("shard %d digest differs: follower %s, primary %s", i, got, want)
				}
			}

			// Byte-identical read surfaces.
			for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
				code, pbody := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
				if code != http.StatusOK {
					t.Fatalf("primary diagnose %s: %d %s", app, code, pbody)
				}
				code, fbody := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
				if code != http.StatusOK {
					t.Fatalf("replica diagnose %s: %d %s", app, code, fbody)
				}
				if !bytes.Equal(pbody, fbody) {
					t.Fatalf("diagnose %s differs between primary and replica", app)
				}
				code, pbody = get(t, ts, "/v1/breakdown?app="+app)
				if code != http.StatusOK {
					t.Fatalf("primary breakdown %s: %d %s", app, code, pbody)
				}
				code, fbody = get(t, ts2, "/v1/breakdown?app="+app)
				if code != http.StatusOK {
					t.Fatalf("replica breakdown %s: %d %s", app, code, fbody)
				}
				if !bytes.Equal(pbody, fbody) {
					t.Fatalf("breakdown %s differs between primary and replica", app)
				}
			}

			// Write fencing: ingest and finalize 307 to the primary.
			noRedirect := &http.Client{
				CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
			}
			resp, err := noRedirect.Post(ts2.URL+"/v1/ingest", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTemporaryRedirect {
				t.Fatalf("replica ingest status %d, want 307", resp.StatusCode)
			}
			if loc := resp.Header.Get("Location"); loc != ts.URL+"/v1/ingest" {
				t.Fatalf("redirect location %q, want %q", loc, ts.URL+"/v1/ingest")
			}

			// Replication status and lag gauges.
			code, body := get(t, ts2, "/v1/replication/status")
			if code != http.StatusOK {
				t.Fatalf("replication status: %d %s", code, body)
			}
			var rs ReplicationStatusJSON
			if err := json.Unmarshal(body, &rs); err != nil {
				t.Fatal(err)
			}
			if rs.Role != "replica" || rs.Primary != ts.URL || len(rs.ShardLag) != shards {
				t.Fatalf("replica status = %s", body)
			}
			code, body = get(t, ts, "/v1/replication/status")
			if code != http.StatusOK {
				t.Fatalf("primary replication status: %d %s", code, body)
			}
			if err := json.Unmarshal(body, &rs); err != nil {
				t.Fatal(err)
			}
			if rs.Role != "primary" || len(rs.Followers) == 0 {
				t.Fatalf("primary status = %s", body)
			}
			code, body = get(t, ts2, "/v1/stats")
			if code != http.StatusOK {
				t.Fatalf("replica stats: %d", code)
			}
			if !bytes.Contains(body, []byte("replica.follower.applied.seq")) {
				t.Fatalf("replica stats carry no lag gauges")
			}

			// Promote: the replica reopens as a primary and accepts writes.
			code, body = post(t, ts2, "/v1/replication/promote", struct{}{})
			if code != http.StatusOK {
				t.Fatalf("promote: %d %s", code, body)
			}
			var info PromoteInfo
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			if info.Role != "primary" || len(info.Digests) != shards {
				t.Fatalf("promote info = %s", body)
			}
			for i := range prim.shards {
				if want := wal.StoreDigest(prim.shards[i].st); info.Digests[i] != want {
					t.Fatalf("promoted shard %d digest %s, want %s", i, info.Digests[i], want)
				}
			}
			code, body = post(t, ts2, "/v1/ingest", IngestRequest{Events: lifecycleBatches(b)[0]})
			if code != http.StatusOK {
				t.Fatalf("post-promote ingest: %d %s", code, body)
			}

			ts2.Close()
			if err := foll.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			if err := prim.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFailoverPromoteMatchesCleanReplay kills the primary abruptly
// (connections severed, no shutdown), promotes the follower, and checks
// the promoted node against a clean single-node replay of the
// follower's own journals: identical per-shard digests and identical
// diagnose/breakdown bodies.
func TestFailoverPromoteMatchesCleanReplay(t *testing.T) {
	_, b := testBundle(t)
	const shards = 2
	primDir, follDir, cleanDir := t.TempDir(), t.TempDir(), t.TempDir()
	prim, err := Open(Config{DataDir: primDir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(prim.Handler())
	loadAndFinalize(t, ts, b)

	foll, err := Open(Config{
		DataDir: follDir, Bundle: b, Shards: shards,
		ReplicaOf: ts.URL, ReplicaPoll: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(foll.Handler())

	// Ingest riding while replication streams: post every batch, then cut
	// the primary without any graceful handoff.
	for i, evs := range lifecycleBatches(b) {
		code, body := post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
		if code != http.StatusOK {
			t.Fatalf("event batch %d: %d %s", i, code, body)
		}
	}
	waitReplicaCaughtUp(t, foll, prim)
	ts.CloseClientConnections()
	ts.Close()

	code, body := post(t, ts2, "/v1/replication/promote", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("promote: %d %s", code, body)
	}
	var info PromoteInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	// Clean replay: the follower's journals, copied verbatim into a fresh
	// data dir, opened as a plain single node.
	for i := 0; i < shards; i++ {
		src := journalPath(shardDir(follDir, shards, i))
		dstDir := shardDir(cleanDir, shards, i)
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(dstDir), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(cleanDir, "SHARDS"), []byte("2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean, err := Open(Config{DataDir: cleanDir, Bundle: b, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tsClean := httptest.NewServer(clean.Handler())

	for i := range clean.shards {
		if want := wal.StoreDigest(clean.shards[i].st); info.Digests[i] != want {
			t.Fatalf("promoted shard %d digest %s != clean replay %s", i, info.Digests[i], want)
		}
	}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, pbody := post(t, ts2, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("promoted diagnose %s: %d %s", app, code, pbody)
		}
		code, cbody := post(t, tsClean, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("clean diagnose %s: %d %s", app, code, cbody)
		}
		if !bytes.Equal(pbody, cbody) {
			t.Fatalf("diagnose %s differs between promoted node and clean replay", app)
		}
		code, pbody = get(t, ts2, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("promoted breakdown %s: %d %s", app, code, pbody)
		}
		code, cbody = get(t, tsClean, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("clean breakdown %s: %d %s", app, code, cbody)
		}
		if !bytes.Equal(pbody, cbody) {
			t.Fatalf("breakdown %s differs between promoted node and clean replay", app)
		}
	}

	// The promoted node is a writable primary.
	code, body = post(t, ts2, "/v1/ingest", IngestRequest{Events: lifecycleBatches(b)[0]})
	if code != http.StatusOK {
		t.Fatalf("post-promote ingest: %d %s", code, body)
	}
	code, body = get(t, ts2, "/v1/replication/status")
	if code != http.StatusOK {
		t.Fatalf("post-promote status: %d", code)
	}
	var rs ReplicationStatusJSON
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Role != "primary" {
		t.Fatalf("post-promote role %q, want primary", rs.Role)
	}

	tsClean.Close()
	if err := clean.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	if err := foll.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := prim.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareReplicaState covers the REPLICA marker: a boot-ID change
// wipes shipped shard state and keeps the follower's stable ID.
func TestPrepareReplicaState(t *testing.T) {
	dir := t.TempDir()
	id1, err := prepareReplicaState(dir, 1, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" {
		t.Fatal("empty follower id")
	}
	// Same boot: state survives, ID is stable.
	jp := journalPath(shardDir(dir, 1, 0))
	if err := os.WriteFile(jp, []byte("journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	id2, err := prepareReplicaState(dir, 1, "boot-a")
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id1 {
		t.Fatalf("follower id changed across same-boot reopen: %q -> %q", id1, id2)
	}
	if _, err := os.Stat(jp); err != nil {
		t.Fatalf("journal wiped on same-boot reopen: %v", err)
	}
	// New boot: shipped state wiped, ID still stable.
	id3, err := prepareReplicaState(dir, 1, "boot-b")
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Fatalf("follower id changed across resync: %q -> %q", id1, id3)
	}
	if _, err := os.Stat(jp); !os.IsNotExist(err) {
		t.Fatalf("journal survived a boot-ID change: %v", err)
	}
}
