package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/wal"
	"grca/internal/wire"
)

// retentionStream is the post-finalize stream of the retention test:
// EBGPFlap symptoms on real PERs and ticks on unknown routers, ten
// minutes apart from the corpus end on, so the head walks 5h past the
// bundle and the 6h window sweeps most of the corpus away.
func retentionStream(b platform.Bundle) [][]EventJSON {
	at := b.Start.Add(b.Duration)
	var batches [][]EventJSON
	for i := 0; i < 30; i++ {
		t0 := at.Add(time.Duration(i) * 10 * time.Minute)
		evs := []EventJSON{{
			Name: event.EBGPFlap, Start: t0, End: t0.Add(time.Minute),
			Loc: LocationJSON{Type: "router:neighbor",
				A: fmt.Sprintf("pop%02d-per%d", i%2, 1+i%2), B: fmt.Sprintf("10.98.%d.1", i)},
		}}
		for j := 0; j < 6; j++ {
			evs = append(evs, EventJSON{
				Name: "synthetic tick", Start: t0.Add(time.Second), End: t0.Add(time.Second),
				Loc: LocationJSON{Type: "router", A: fmt.Sprintf("ret-r%d", i*6+j)},
			})
		}
		batches = append(batches, evs)
	}
	return batches
}

// retentionOutcome is what a retention-on server shows from outside.
type retentionOutcome struct {
	ingest    [][]byte
	digest    string
	events    int
	diagnose  map[string][]byte
	breakdown map[string][]byte
}

func captureQueries(t *testing.T, s *Server, out *retentionOutcome) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	out.diagnose, out.breakdown = map[string][]byte{}, map[string][]byte{}
	for _, app := range []string{"bgpflap", "cdn", "pim", "backbone"} {
		code, body := post(t, ts, "/v1/diagnose", DiagnoseRequest{App: app, All: true})
		if code != http.StatusOK {
			t.Fatalf("diagnose %s: %d %s", app, code, body)
		}
		out.diagnose[app] = body
		code, body = get(t, ts, "/v1/breakdown?app="+app)
		if code != http.StatusOK {
			t.Fatalf("breakdown %s: %d %s", app, code, body)
		}
		out.breakdown[app] = body
	}
	out.digest = wal.StoreDigest(s.Store())
	out.events = s.Store().Len()
}

func (o retentionOutcome) diff(other retentionOutcome) string {
	if o.digest != other.digest {
		return fmt.Sprintf("store digest differs (%d vs %d live events)", o.events, other.events)
	}
	for app, want := range o.diagnose {
		if !bytes.Equal(other.diagnose[app], want) {
			return "diagnose " + app + " differs"
		}
	}
	for app, want := range o.breakdown {
		if !bytes.Equal(other.breakdown[app], want) {
			return "breakdown " + app + " differs"
		}
	}
	return ""
}

// TestServeRetentionRestartParity drives grca serve with -retention the
// way an operator feeds it: one source's feed after another (each spans
// the whole corpus, so every later source arrives behind the window),
// finalize, then a live JSON + binary event stream. The store digest
// and the /v1/diagnose and /v1/breakdown bytes must survive a graceful
// restart and a crash image unchanged — the journal replay re-evicts
// exactly as the live store did — and agree across shard counts.
func TestServeRetentionRestartParity(t *testing.T) {
	_, b := testBundle(t)
	const retention = 6 * time.Hour
	sweeps := obs.GetCounter("store.evictions")
	evicted := obs.GetCounter("store.evicted")

	var base retentionOutcome
	for _, shards := range []int{1, 2} {
		name := fmt.Sprintf("shards=%d", shards)
		cfg := Config{DataDir: t.TempDir(), Bundle: b, Shards: shards, Retention: retention}
		sweeps0, evicted0 := sweeps.Value(), evicted.Value()
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		var got retentionOutcome
		for _, src := range feedOrder {
			if feed, ok := b.Feeds[src]; ok {
				if code, body := post(t, ts, "/v1/ingest", IngestRequest{Source: src, Lines: feed}); code != http.StatusOK {
					t.Fatalf("%s: feed %s: %d %s", name, src, code, body)
				}
			}
		}
		if code, body := post(t, ts, "/v1/finalize", struct{}{}); code != http.StatusOK {
			t.Fatalf("%s: finalize: %d %s", name, code, body)
		}
		for i, evs := range retentionStream(b) {
			var code int
			var body []byte
			if i%2 == 1 {
				ins, err := decodeEvents(evs)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/v1/ingest", wire.ContentType, bytes.NewReader(wire.AppendEvents(nil, ins)))
				if err != nil {
					t.Fatal(err)
				}
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				code = resp.StatusCode
			} else {
				code, body = post(t, ts, "/v1/ingest", IngestRequest{Events: evs})
			}
			if code != http.StatusOK {
				t.Fatalf("%s: event batch %d: %d %s", name, i, code, body)
			}
			got.ingest = append(got.ingest, body)
		}
		ts.Close()
		captureQueries(t, s, &got)
		// Every batch is acknowledged, so the data dir as it stands is a
		// crash image: the journals as the commits left them, before
		// Shutdown syncs and closes them.
		crashDir := t.TempDir()
		copyTree(t, cfg.DataDir, crashDir)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}

		t.Logf("%s: %d live, %d evicted in %d sweeps, %d diagnose bytes",
			name, got.events, evicted.Value()-evicted0, sweeps.Value()-sweeps0, len(got.diagnose["bgpflap"]))
		if sweeps.Value() == sweeps0 || evicted.Value() == evicted0 {
			t.Fatalf("%s: retention never evicted — the test would be vacuous", name)
		}

		for _, restart := range []struct {
			how string
			dir string
		}{{"graceful", cfg.DataDir}, {"crash", crashDir}} {
			rcfg := cfg
			rcfg.DataDir = restart.dir
			s2, err := Open(rcfg)
			if err != nil {
				t.Fatal(err)
			}
			var again retentionOutcome
			captureQueries(t, s2, &again)
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			if d := got.diff(again); d != "" {
				t.Errorf("%s: across the %s restart: %s", name, restart.how, d)
			}
		}

		if base.digest == "" {
			base = got
			continue
		}
		if d := base.diff(got); d != "" {
			t.Errorf("%s vs shards=1: %s", name, d)
		}
		for i := range base.ingest {
			if !bytes.Equal(got.ingest[i], base.ingest[i]) {
				t.Errorf("%s: event batch %d response differs from shards=1:\n  got  %s\n  want %s", name, i, got.ingest[i], base.ingest[i])
			}
		}
	}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
