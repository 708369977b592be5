// Command perfbench is the repository's serve-level benchmark. It starts
// the built `grca serve` as its own process, sets it up from a seeded
// simulated bundle, drives one seeded workload over closed-loop HTTP
// connections, checks every output against in-process oracles, restarts
// the server, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans and reports the per-layer metrics. Run it
// through run.sh, which builds both binaries first; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"grca/internal/platform"
)

// restartRounds is how many times each run restarts the primary.
const restartRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	grca     string
	work     string
}

// result is one run's outcome.
type result struct {
	e2e, layers metrics
	checks      []check
	attempted   int
	failed      int
	refused     int
	record      map[string]any
	tracer      *tracer
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, diagnose, retain-replica, or all (each in turn, one result line each)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "run length knob: the stream's size is fixed from it")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&o.grca, "grca", "", "path of the built grca binary (required)")
	flag.StringVar(&o.work, "work", ".bench_build", "directory for bundles, data dirs, logs and traces")
	flag.Parse()
	o.trace = trace == 1
	if o.grca == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -grca is required, -seconds must be >= 1, -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		o.workload = name
		res, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !report(o, res) {
			os.Exit(1)
		}
	}
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, nproc: runtime.NumCPU(),
		dir: filepath.Join(work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())),
		res: &result{e2e: metrics{}, layers: metrics{}}}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	defer stopAll() // before the data dirs go, on every path
	if o.trace {
		b.tr = newTracer()
		b.res.tracer = b.tr
	}
	b.root = b.tr.begin("run", 0)
	defer b.tr.end(b.root)
	if err := b.run(); err != nil {
		return nil, err
	}
	return b.res, nil
}

// bench is one run's state.
type bench struct {
	o     options
	w     workload
	nproc int
	dir   string
	res   *result
	tr    *tracer
	root  int
	in    *inputs
	ref   *reference
	pc    *http.Client // primary: writers plus the reader
	fc    *http.Client // follower
	// roundsRun counts the rounds started, to name their checks.
	roundsRun int
}

// round is one server lifetime: set-up, replica attach, stream.
type round struct {
	primary, follower *serveProc
	setup             float64
	segs              []*streamResult
	wall              time.Duration // all segments' stream time
	before, after     stats
	rss               float64
	catchup, lag      float64
	got               []streamed
}

func (b *bench) serveArgs(dataDir string, extra ...string) []string {
	args := []string{"-data-dir", dataDir, "-bundle", filepath.Join(b.dir, "bundle"),
		"-fsync", "batch", "-shards", strconv.Itoa(b.nproc)}
	if b.w.retention > 0 {
		args = append(args, "-retention", b.w.retention.String())
	}
	return append(args, extra...)
}

func (b *bench) logPath(name string) string { return filepath.Join(b.dir, name+".log") }

func (b *bench) writers() int {
	if b.w.writers > 0 {
		return b.w.writers
	}
	return b.nproc
}

func (b *bench) run() error {
	w, tr, res := b.w, b.tr, b.res
	sp := tr.begin("phase.generate", b.root)
	in, err := generate(w, b.o.seed, b.o.seconds)
	tr.end(sp)
	if err != nil {
		return err
	}
	b.in = in
	if err := platform.Save(filepath.Join(b.dir, "bundle"), in.bundle); err != nil {
		return err
	}
	conns := b.writers()
	if w.reader {
		conns++
	}
	b.pc, b.fc = newClient(conns), newClient(2)
	if !w.synthetic {
		// The oracle is computed once: every round sends the same stream.
		sp := tr.begin("phase.reference", b.root)
		b.ref, err = replayReference(in.sys, in.stream)
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	var rounds []*round
	for i := 0; i < w.rounds; i++ {
		r, err := b.round()
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		if i == w.rounds-1 {
			break
		}
		if r.follower != nil {
			if err := r.follower.stop(); err != nil {
				return err
			}
		}
		if err := r.primary.stop(); err != nil {
			return err
		}
	}
	b.summarize(rounds)
	if err := b.final(rounds[len(rounds)-1]); err != nil {
		return err
	}
	res.record = runRecord(b, in)
	if b.o.trace {
		return b.layers()
	}
	return nil
}

// round sets up a fresh server (timed from exec to the finalize 200),
// attaches the follower, streams, and checks the round's outputs.
func (b *bench) round() (*round, error) {
	w, tr, c, in := b.w, b.tr, b.pc, b.in
	b.roundsRun++
	r := &round{}
	for _, d := range []string{"data", "replica"} {
		if err := os.RemoveAll(filepath.Join(b.dir, d)); err != nil {
			return nil, err
		}
	}
	sp := tr.begin("phase.setup", b.root)
	t0 := time.Now()
	p, err := startServe(b.o.grca, b.logPath("primary"), b.serveArgs(filepath.Join(b.dir, "data"))...)
	if err != nil {
		return nil, err
	}
	r.primary = p
	if err := setUp(c, p, in); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setup = time.Since(t0).Seconds()
	tr.end(sp)

	if w.replica {
		sp := tr.begin("phase.replica_attach", b.root)
		r.follower, err = startServe(b.o.grca, b.logPath("follower"),
			b.serveArgs(filepath.Join(b.dir, "replica"), "-replica-of", p.base)...)
		if err != nil {
			return nil, err
		}
		n, err := liveEvents(c, p.base)
		if err != nil {
			return nil, err
		}
		if _, err := waitEvents(b.fc, r.follower.base, n, 3*time.Minute); err != nil {
			return nil, fmt.Errorf("replica bootstrap: %w", err)
		}
		tr.end(sp)
	}

	if r.before, err = getStats(c, p.base); err != nil {
		return nil, err
	}
	replies := make([][]byte, len(in.bodies))
	for i := 0; i < w.segments; i++ {
		lo, hi := i*len(in.bodies)/w.segments, (i+1)*len(in.bodies)/w.segments
		sp := tr.begin("phase.stream", b.root)
		st := runStream(c, p.base, in, lo, hi, replies, b.writers(), w.reader, tr, sp)
		tr.end(sp)
		if st.firstErr != nil {
			return nil, fmt.Errorf("stream: %w", st.firstErr)
		}
		r.segs = append(r.segs, st)
		r.wall += st.wall
	}
	lastAck := r.segs[len(r.segs)-1].lastAck
	if w.replica {
		// Lag at the last ack, then catch-up: poll until the follower
		// holds as many live events as the primary.
		sp := tr.begin("phase.catchup", b.root)
		fst, err := getStats(b.fc, r.follower.base)
		if err != nil {
			return nil, err
		}
		n, err := liveEvents(c, p.base)
		if err != nil {
			return nil, err
		}
		caught, err := waitEvents(b.fc, r.follower.base, n, 3*time.Minute)
		if err != nil {
			return nil, fmt.Errorf("replica catch-up: %w", err)
		}
		tr.end(sp)
		r.catchup = caught.Sub(lastAck).Seconds()
		r.lag = float64(fst.Metrics.Gauges["replica.follower.journal.lag.bytes"])
	}
	if r.after, err = getStats(c, p.base); err != nil {
		return nil, err
	}
	if r.rss, err = p.peakRSSMB(); err != nil {
		return nil, err
	}

	sp = tr.begin("phase.check", b.root)
	defer tr.end(sp)
	got, ack := decodeReplies(in, replies)
	checks := []check{ack}
	r.got = got
	evicted := int(r.after.Metrics.Counters["store.evicted"] - r.before.Metrics.Counters["store.evicted"])
	checks = append(checks, checkEqual("store growth equals accepted minus evicted",
		in.events-evicted, r.after.Events-r.before.Events))
	if b.ref != nil {
		checks = append(checks, checkLabels(got, b.ref))
	}
	if w.replica {
		pb, err := breakdowns(c, p.base)
		if err != nil {
			return nil, err
		}
		fb, err := breakdowns(b.fc, r.follower.base)
		if err != nil {
			return nil, err
		}
		checks = append(checks, checkBodies("follower /v1/breakdown equals the primary's", pb, fb))
	}
	for _, ch := range checks {
		ch.name = fmt.Sprintf("round %d: %s", b.roundsRun, ch.name)
		b.res.checks = append(b.res.checks, ch)
	}
	return r, nil
}

// summarize turns the rounds into metrics. A part is one stream segment
// of one round; rates and latency quantiles are medians over the parts'
// own figures, so one slow stretch of a shared machine moves a run's
// figures less than pooling would. Set-up time and peak memory are
// medians over rounds.
func (b *bench) summarize(rounds []*round) {
	var setup, rss, diag, catchup, eps, p50, p95, p99, reads []float64
	attempted, refused := 0, 0
	for i, r := range rounds {
		fmt.Printf("round %d: setup %.3fs, rss %.1fMB, %d diagnoses, parts", i+1, r.setup, r.rss, len(r.got))
		setup = append(setup, r.setup)
		rss = append(rss, r.rss)
		diag = append(diag, float64(len(r.got))/r.wall.Seconds())
		catchup = append(catchup, r.catchup)
		for _, st := range r.segs {
			fmt.Printf(" %.0fev/s", float64(st.events)/st.wall.Seconds())
			eps = append(eps, float64(st.events)/st.wall.Seconds())
			p50 = append(p50, quantile(st.ingestMs, 0.50))
			p95 = append(p95, quantile(st.ingestMs, 0.95))
			p99 = append(p99, quantile(st.ingestMs, 0.99))
			reads = append(reads, st.readMs...)
			attempted += st.attempted
			refused += st.refused
			b.res.attempted += st.attempted + len(st.readMs)
			b.res.failed += st.failed
		}
		fmt.Println()
	}
	b.res.refused = refused
	e, l := b.res.e2e, b.res.layers
	e.set("setup_s", quantile(setup, 0.5), "s")
	e.set("ingest_eps", quantile(eps, 0.5), "events/s")
	e.set("ingest_p50_ms", quantile(p50, 0.5), "ms")
	e.set("rss_mb", quantile(rss, 0.5), "MB")
	l.set("ingest_p95_ms", quantile(p95, 0.5), "ms")
	l.set("ingest_p99_ms", quantile(p99, 0.5), "ms")
	l.set("diag_per_s", quantile(diag, 0.5), "diagnoses/s")
	l.set("read_p50_ms", quantile(reads, 0.50), "ms")
	l.set("read_p99_ms", quantile(reads, 0.99), "ms")
	l.set("catchup_s", quantile(catchup, 0.5), "s")
	l.set("refused_ratio", float64(refused)/float64(attempted), "ratio")
	last := rounds[len(rounds)-1]
	l.set("replica.lag_bytes_at_end", last.lag, "bytes")
	serverLayers(l, last.before, last.after)
}

// final runs the last round's end-state checks, then restarts the
// primary restartRounds times (SIGTERM drain, re-exec on the same data
// dir, until /healthz reports serving) and checks nothing changed.
func (b *bench) final(r *round) error {
	tr, c := b.tr, b.pc
	sp := tr.begin("phase.check", b.root)
	allBefore, err := diagnoseAll(c, r.primary.base)
	if err != nil {
		return err
	}
	if b.w.reader {
		b.res.checks = append(b.res.checks, checkByteIdentical(r.got, allBefore))
	}
	r.got = nil
	if r.follower != nil {
		if err := r.follower.stop(); err != nil {
			return err
		}
	}
	tr.end(sp)

	dataDir := filepath.Join(b.dir, "data")
	var restarts []float64
	for i := 0; i < restartRounds; i++ {
		sp := tr.begin("phase.restart", b.root)
		t0 := time.Now()
		if err := r.primary.stop(); err != nil {
			return err
		}
		drain := time.Since(t0)
		if i == 0 {
			mb, err := dirMB(dataDir)
			if err != nil {
				return err
			}
			b.res.layers.set("wal.data_dir_mb", mb, "MB")
		}
		t1 := time.Now()
		if r.primary, err = startServe(b.o.grca, b.logPath("restart"), b.serveArgs(dataDir)...); err != nil {
			return err
		}
		if err := waitServing(c, r.primary.base, 3*time.Minute); err != nil {
			return err
		}
		// The data-dir walk between stop and re-exec is not the server's.
		restarts = append(restarts, (drain + time.Since(t1)).Seconds())
		tr.end(sp)
		live, err := liveEvents(c, r.primary.base)
		if err != nil {
			return err
		}
		b.res.checks = append(b.res.checks,
			checkEqual(fmt.Sprintf("live events unchanged by restart %d", i+1), r.after.Events, live))
	}
	fmt.Printf("restarts: %.3fs\n", restarts)
	b.res.e2e.set("restart_s", quantile(restarts, 0.5), "s")

	sp = tr.begin("phase.check", b.root)
	defer tr.end(sp)
	allAfter, err := diagnoseAll(c, r.primary.base)
	if err != nil {
		return err
	}
	b.res.checks = append(b.res.checks, checkBodies("/v1/diagnose {all} unchanged by restarts", allBefore, allAfter))
	return r.primary.stop()
}

// layers runs the in-process layer replays of a traced run.
func (b *bench) layers() error {
	ref := b.ref
	if ref == nil {
		var err error
		if ref, err = replayReference(b.in.sys, b.in.decoded()); err != nil {
			return err
		}
	}
	journals, err := findJournals(filepath.Join(b.dir, "data"))
	if err != nil {
		return err
	}
	sp := b.tr.begin("phase.layers", b.root)
	defer b.tr.end(sp)
	return layerReplays(b.res.layers, b.tr, sp, b.in, ref, journals, b.dir, b.nproc)
}

// waitEvents polls base until its live-event count equals want and
// returns when it first did.
func waitEvents(c *http.Client, base string, want int, limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for {
		n, err := liveEvents(c, base)
		if err == nil && n == want {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s holds %d live events, want %d (last error %v)", base, n, want, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runRecord describes the run's environment and operation counts.
func runRecord(b *bench, in *inputs) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // the benchmark may run from a plain source tree
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"workload": b.w.name, "why": b.w.why, "seed": b.o.seed, "seconds": b.o.seconds, "trace": b.o.trace,
		"nproc": b.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": commit,
		"shards": b.nproc, "writers": b.writers(), "reader": b.w.reader, "batch": b.w.batch,
		"rounds": b.w.rounds, "segments": b.w.segments, "restarts": restartRounds,
		"stream_events": in.events, "stream_batches": len(in.bodies),
		"inputs_sha256": in.sha256,
		"attempted":     b.res.attempted, "failed": b.res.failed, "refused": b.res.refused,
	}
}

// report prints every metric by name and unit, the checks and the run
// record, then the result JSON as the last line. It returns whether every
// check passed.
func report(o options, res *result) bool {
	correct := true
	for _, c := range res.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
			correct = false
		}
		fmt.Printf("check %s %s: %s\n", mark, c.name, c.detail)
	}
	rec, _ := json.Marshal(res.record) // map of plain values
	fmt.Printf("record %s\n", rec)
	printMetrics("end-to-end", res.e2e)
	printMetrics("workload-specific end-to-end", pick(res.layers, "ingest_p95_ms", "ingest_p99_ms", "diag_per_s", "read_p50_ms", "read_p99_ms", "catchup_s", "refused_ratio"))
	out := res.e2e
	if o.trace {
		printMetrics("per-layer", res.layers)
		for _, s := range res.tracer.selfTimes() {
			fmt.Printf("span %-28s n=%-6d total=%.4fs self=%.4fs\n", s.Name, s.Count, s.Total, s.Self)
		}
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := res.tracer.write(path, res.record); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return false
		}
		fmt.Printf("trace written to %s\n", path)
		tracingOverhead(o, res.e2e)
		out = res.layers
	} else {
		saveUntraced(o, res.e2e)
	}
	if err := matchesManifest(out, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	line, _ := json.Marshal(map[string]any{ // plain values only
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	fmt.Println(string(line))
	return correct
}

func printMetrics(title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s\n", title)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func pick(m metrics, names ...string) metrics {
	out := metrics{}
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

// The tracing overhead is the traced run's end-to-end figures against
// the last untraced run of the same workload in the same work dir.
func untracedPath(o options) string {
	return filepath.Join(o.work, "untraced-"+o.workload+".json")
}

func saveUntraced(o options, m metrics) {
	if data, err := json.Marshal(m); err == nil {
		_ = os.WriteFile(untracedPath(o), data, 0o644) // only feeds the overhead report
	}
}

func tracingOverhead(o options, traced metrics) {
	data, err := os.ReadFile(untracedPath(o))
	var base metrics
	if err != nil || json.Unmarshal(data, &base) != nil {
		fmt.Println("tracing overhead: no untraced run of this workload to compare with")
		return
	}
	fmt.Println("== tracing overhead (traced vs last untraced run)")
	for _, n := range []string{"ingest_eps", "ingest_p50_ms", "restart_s"} {
		if b := base[n].Value; b != 0 {
			fmt.Printf("  %-32s %+8.2f%%\n", n, 100*(traced[n].Value-b)/b)
		}
	}
}

// matchesManifest checks the reported metric names against
// BENCHMARK.json's lists when the run starts from the repository root, so
// a renamed or missing metric fails the run instead of the comparison.
func matchesManifest(m metrics, trace bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil // run from elsewhere: nothing to match
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := manifest.EndToEnd
	if trace {
		want = manifest.PerLayer
	}
	if len(want) != len(m) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(m), len(want))
	}
	for _, w := range want {
		if got, ok := m[w.Name]; !ok || got.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) not reported as listed in BENCHMARK.json", w.Name, w.Unit)
		}
	}
	return nil
}
