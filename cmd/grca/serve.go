package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/server"
)

// runServe starts the durable diagnosis service: the bundle supplies the
// configuration archive and deployment metadata, feeds arrive over HTTP,
// and everything accepted survives restarts via the ingest journal under
// -data-dir.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dataDir := fs.String("data-dir", "", "durable state directory (the ingest journal; required)")
	bundleDir := fs.String("bundle", "", "dataset bundle directory supplying configs + manifest (required)")
	fsync := fs.String("fsync", "batch", "journal durability policy: batch only (one fsync per commit group)")
	retention := fs.Duration("retention", 0, "evict events that ended this long before the latest event start, O(evicted) per sweep (0 = keep everything)")
	shards := fs.Int("shards", 1, "store/journal shard count: independent commit lanes the ingest path parallelizes across (fixed at data-dir creation)")
	maxInflight := fs.Int("max-inflight", 64, "per-shard ingest queue depth; beyond it clients get 429")
	timeout := fs.Duration("request-timeout", 60*time.Second, "per-request applier wait bound")
	legacyParsers := fs.Bool("legacy-parsers", false, "use the reference string parsers instead of the zero-copy fast path (parity-tested escape hatch)")
	metricsAddr := fs.String("metrics-addr", "",
		"serve expvar/pprof on a dedicated address (e.g. :6060); "+
			"when unset, the same handlers are mounted on the main -addr under /debug/")
	replicaOf := fs.String("replica-of", "",
		"run as a live read replica of the primary at this base URL (e.g. http://primary:8080); "+
			"writes are redirected there until `grca promote`")
	replicaPoll := fs.Duration("replica-poll", 0,
		"primary-side shipping poll interval (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" || *bundleDir == "" {
		return fmt.Errorf("serve: -data-dir and -bundle are required")
	}
	if *fsync != "batch" {
		return fmt.Errorf("serve: -fsync %q: only batch is supported (the journal fsyncs every commit group)", *fsync)
	}
	bundle, err := platform.Load(*bundleDir)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obs.ServeDebug(*metricsAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "metrics: expvar at http://%s/debug/vars, pprof at http://%s/debug/pprof/\n", bound, bound)
	}

	s, err := server.Open(server.Config{
		DataDir:        *dataDir,
		Bundle:         bundle,
		Retention:      *retention,
		Shards:         *shards,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		LegacyParsers:  *legacyParsers,
		ReplicaOf:      *replicaOf,
		ReplicaPoll:    *replicaPoll,
		// No dedicated metrics listener: expose /debug/ on the main
		// address so a single-port deployment still has expvar/pprof.
		Debug: *metricsAddr == "",
	})
	if err != nil {
		return err
	}
	rec := s.Recovery()
	phase := "loading"
	if rec.Finalized {
		phase = "serving"
	}
	fmt.Fprintf(os.Stderr, "serve: recovered %d batches, %d events (phase %s)\n", rec.Batches, rec.Events, phase)
	if *replicaOf != "" {
		fmt.Fprintf(os.Stderr, "serve: replica of %s — writes redirect to the primary until promotion\n", *replicaOf)
	}

	bound, err := s.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (data under %s, shards=%d)\n", bound, *dataDir, rec.Shards)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "serve: %v — draining\n", got)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve: shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "serve: stopped cleanly")
	return nil
}

// runPromote flips a running replica into a standalone primary: it
// seals the replication stream, reopens through the normal recovery
// path (a replay of the shipped journals), and reports the promoted
// node's per-shard digests.
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL of the replica to promote (e.g. http://127.0.0.1:8081; required)")
	timeout := fs.Duration("timeout", 5*time.Minute, "how long to wait for the promotion replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("promote: -addr is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(*addr, "/")+"/v1/replication/promote", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("promote: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var info server.PromoteInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return fmt.Errorf("promote: bad response: %v", err)
	}
	fmt.Printf("promoted: role=%s boot=%s applied_seq=%d\n", info.Role, info.BootID, info.AppliedSeq)
	fmt.Printf("recovered %d batches, %d events (finalized=%v)\n",
		info.Recovery.Batches, info.Recovery.Events, info.Recovery.Finalized)
	for i, d := range info.Digests {
		fmt.Printf("shard %d digest %s\n", i, d)
	}
	return nil
}
