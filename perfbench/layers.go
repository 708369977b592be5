package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/obs"
	"grca/internal/platform"
	"grca/internal/rollup"
	"grca/internal/store"
	"grca/internal/wal"
	"grca/internal/wire"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// serverLayers derives per-layer metrics from /v1/stats: before and
// after are taken around the stream phase, so latencies and ratios cover
// the stream alone; eviction and snapshot counts are the process's totals
// (set-up plus stream), since set-up is where retention's cost lands.
func serverLayers(m metrics, before, after stats) {
	c0, c1 := before.Metrics.Counters, after.Metrics.Counters
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	h0, h1 := before.Metrics.Histograms, after.Metrics.Histograms
	m.set("server.ingest_p50_ms", 1e3*histQuantile(h0["server.http.ingest.seconds"], h1["server.http.ingest.seconds"], 0.50), "ms")
	m.set("server.ingest_p99_ms", 1e3*histQuantile(h0["server.http.ingest.seconds"], h1["server.http.ingest.seconds"], 0.99), "ms")
	m.set("server.refused", delta("server.http.429"), "count")
	m.set("wal.batches_per_fsync", ratio(delta("server.ingest.batches"), delta("wal.fsyncs")), "ratio")
	m.set("wal.commit_p50_ms", 1e3*histQuantile(h0["wal.commit.seconds"], h1["wal.commit.seconds"], 0.50), "ms")
	m.set("wal.snapshots", float64(c1["wal.snapshots"]), "count")
	m.set("store.evictions", float64(c1["store.evictions"]), "count")
	m.set("store.evicted", float64(c1["store.evicted"]), "count")
	m.set("store.scan_ratio", ratio(delta("store.query.scanned.nonoverlap"), delta("store.queries")), "ratio")
	m.set("collector.fallback_ratio", ratio(float64(c1["collector.fastpath.fallback"]), float64(c1["collector.fastpath.lines"])), "ratio")
	m.set("realtime.pending_peak", float64(after.Metrics.Gauges["realtime.pending.peak"]), "count")
	m.set("realtime.late", delta("realtime.late"), "count")
	m.set("realtime.forced", delta("realtime.forced"), "count")
	m.set("engine.diagnose_p99_ms", 1e3*histQuantile(h0["engine.diagnose.seconds"], h1["engine.diagnose.seconds"], 0.99), "ms")
	hits, misses := delta("engine.expand.cache.hits"), delta("engine.expand.cache.misses")
	m.set("netstate.expand_hit_ratio", ratio(hits, hits+misses), "ratio")
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two snapshots, interpolating linearly inside the bucket
// (the registry's own rule) over the latency bucket bounds.
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	prev := map[float64]int64{}
	for _, b := range before.Buckets {
		prev[b.Upper] = b.Count
	}
	type bucket struct {
		upper float64
		n     int64
	}
	var bs []bucket
	var total int64
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.Upper]; n > 0 {
			bs = append(bs, bucket{b.Upper, n})
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].upper < bs[j].upper })
	rank := q * float64(total)
	var cum int64
	for _, b := range bs {
		prevCum := cum
		cum += b.n
		if float64(cum) < rank {
			continue
		}
		lower, upper := lowerBound(b.upper), b.upper
		if math.IsInf(upper, 1) {
			return after.Max
		}
		return lower + (upper-lower)*(rank-float64(prevCum))/float64(b.n)
	}
	return after.Max
}

// lowerBound is the latency bucket bound just below upper.
func lowerBound(upper float64) float64 {
	lo := 0.0
	for _, b := range obs.LatencyBuckets {
		if b >= upper {
			break
		}
		lo = b
	}
	return lo
}

// layerReplays times the run's generated inputs through each layer's
// public functions inside the benchmark process. It runs after the
// end-to-end phase, so it cannot perturb it.
func layerReplays(m metrics, tr *tracer, parent int, in *inputs, ref *reference, journals []string, tmpDir string, nproc int) error {
	timed := func(name string, fn func() error) (time.Duration, error) {
		sp := tr.begin(name, parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		tr.end(sp)
		return d, err
	}
	m.set("client.encode_us_per_batch", perUnit(in.encode, len(in.bodies), 1e6), "us")

	// The decode and store replays take the stream's first bodies: enough
	// for a per-unit cost without holding a second copy of a 1M-event
	// stream in memory.
	const replayBodies = 200
	bodies := in.bodies[:min(replayBodies, len(in.bodies))]
	var decoded []event.Instance
	d, err := timed("layer.wire.decode", func() error {
		for _, body := range bodies {
			b, err := wire.Decode(body)
			if err != nil {
				return err
			}
			decoded = append(decoded, b.Events...)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wire replay: %w", err)
	}
	m.set("wire.decode_us_per_batch", perUnit(d, len(bodies), 1e6), "us")

	sh := store.NewSharded(nproc, store.HashRoute(nproc))
	d, _ = timed("layer.store.add", func() error {
		for _, ev := range decoded {
			sh.Add(ev)
		}
		return nil
	})
	m.set("store.add_us_per_event", perUnit(d, len(decoded), 1e6), "us")
	decoded, sh = nil, nil

	groupMs, err := journalGroups(tr, parent, in.bodies, filepath.Join(tmpDir, "journal-replay"), nproc)
	if err != nil {
		return fmt.Errorf("journal sync replay: %w", err)
	}
	m.set("wal.journal_sync_ms", groupMs, "ms")

	d, err = timed("layer.wal.replay", func() error { return replayJournals(journals, filepath.Join(tmpDir, "journal-copy")) })
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	m.set("wal.journal_replay_s", d.Seconds(), "s")

	d, err = timed("layer.collector.assemble", func() error {
		_, err := in.bundle.Assemble(platform.Options{})
		return err
	})
	if err != nil {
		return fmt.Errorf("bundle assemble: %w", err)
	}
	m.set("collector.bundle_load_s", d.Seconds(), "s")

	m.set("realtime.observe_us_per_event", perUnit(ref.wall, ref.events, 1e6), "us")

	var syms int
	d, err = timed("layer.engine.diagnose", func() error {
		for _, a := range apps {
			_, g, err := a.build()
			if err != nil {
				return err
			}
			eng := engine.New(in.sys.Store, in.sys.View, g)
			for _, dg := range ref.diags[a.name] {
				eng.Diagnose(dg.Symptom)
				syms++
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("engine replay: %w", err)
	}
	m.set("engine.diagnose_us_per_symptom", perUnit(d, syms, 1e6), "us")

	roll := rollup.New(rollup.Config{})
	for _, a := range apps {
		for _, dg := range ref.diags[a.name] {
			roll.CountDiagnosis(a.name, dg)
		}
	}
	const breakdownCalls = 2000
	d, _ = timed("layer.rollup.breakdown", func() error {
		for i := 0; i < breakdownCalls; i++ {
			roll.BreakdownCounts(apps[i%len(apps)].name, time.Time{}, nil)
		}
		return nil
	})
	m.set("rollup.breakdown_us", perUnit(d, breakdownCalls, 1e6), "us")
	return nil
}

// journalGroups appends the run's bodies to a fresh journal in groups of
// nproc (one group commit per shard lane's worth) and returns the median
// milliseconds of a group's appends plus its one Sync.
func journalGroups(tr *tracer, parent int, bodies [][]byte, dir string, nproc int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := wal.OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	const maxGroups = 200
	var groups []float64
	for lo := 0; lo < len(bodies) && len(groups) < maxGroups; lo += nproc {
		sp := tr.begin("layer.wal.journal_group", parent)
		t0 := time.Now()
		for _, b := range bodies[lo:min(lo+nproc, len(bodies))] {
			if err := j.AppendNoSync(b); err != nil {
				return 0, err
			}
		}
		if err := j.Sync(); err != nil {
			return 0, err
		}
		groups = append(groups, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
	}
	return quantile(groups, 0.5), nil
}

// replayJournals copies the stopped server's journals aside and replays
// each with wal.ReplayJournal, the first step of crash recovery.
func replayJournals(journals []string, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, src := range journals {
		dst := filepath.Join(dir, fmt.Sprintf("journal-%d.log", i))
		if err := copyFile(src, dst); err != nil {
			return err
		}
		if _, err := wal.ReplayJournal(dst, func([]byte) error { return nil }); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// findJournals lists the journal files under a data dir.
func findJournals(dataDir string) ([]string, error) {
	var out []string
	err := filepath.Walk(dataDir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() && fi.Name() == "journal.log" {
			out = append(out, path)
		}
		return nil
	})
	return out, err
}

// perUnit is d / n in units of 1/scale seconds (0 when n is 0).
func perUnit(d time.Duration, n int, scale float64) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * scale / float64(n)
}
