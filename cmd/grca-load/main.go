// Command grca-load drives a running `grca serve` instance over HTTP: it
// loads a bundle's raw feeds, finalizes, then streams batches of
// normalized events from concurrent workers and reports sustained ingest
// throughput. The CI serve-smoke job uses it to produce BENCH_SERVE.json.
//
// Usage:
//
//	grca-load -addr http://localhost:8080 -bundle /tmp/corpus \
//	  [-events 200000] [-batch 500] [-c 4] [-wire json|binary] \
//	  [-read-from http://replica:8081] [-step 1ms] [-o BENCH_SERVE.json]
//
// With -read-from, a reader loops the probe path at the replica while
// the write stream runs, and the report carries both endpoints' read
// latency percentiles.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/collector"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/wire"
)

var feedOrder = []string{
	collector.SourceOSPFMon, collector.SourceBGPMon, collector.SourceSyslog,
	collector.SourceSNMP, collector.SourceTACACS, collector.SourceWorkflow,
	collector.SourceLayer1, collector.SourcePerfMon, collector.SourceKeynote,
	collector.SourceServer,
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "serve base URL")
	bundleDir := flag.String("bundle", "", "bundle to load before streaming (skip load phase when empty)")
	events := flag.Int("events", 200000, "normalized events to stream after finalize")
	batch := flag.Int("batch", 500, "events per ingest batch")
	workers := flag.Int("c", 4, "concurrent streaming workers")
	out := flag.String("o", "", "write the throughput report to this JSON file (default stdout)")
	probe := flag.String("probe", "", "after streaming, GET this path repeatedly and report latency percentiles")
	probes := flag.Int("probes", 200, "probe request count with -probe")
	wireMode := flag.String("wire", "json", "ingest encoding: json or binary (the compact wire batch format)")
	readFrom := flag.String("read-from", "",
		"base URL of a read replica: the -probe path is hammered there while the write stream runs, "+
			"and both endpoints' read latency percentiles land in the report (default probe: /v1/breakdown?app=bgpflap)")
	step := flag.Duration("step", time.Millisecond, "time between consecutive streamed events")
	flag.Parse()

	if *wireMode != "json" && *wireMode != "binary" {
		fmt.Fprintf(os.Stderr, "grca-load: -wire must be json or binary, got %q\n", *wireMode)
		os.Exit(1)
	}
	if *readFrom != "" && *probe == "" {
		*probe = "/v1/breakdown?app=bgpflap"
	}
	if err := run(*addr, *bundleDir, *events, *batch, *workers, *out, *probe, *probes, *wireMode == "binary", *readFrom, *step); err != nil {
		fmt.Fprintf(os.Stderr, "grca-load: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, bundleDir string, events, batchSize, workers int, out, probe string, probes int, binary bool, readFrom string, step time.Duration) error {
	contentType := "application/json"
	if binary {
		contentType = wire.ContentType
	}
	start := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	if bundleDir != "" {
		b, err := platform.Load(bundleDir)
		if err != nil {
			return err
		}
		start = b.Start.Add(b.Duration)
		loadBegan := time.Now()
		for _, src := range feedOrder {
			feed, ok := b.Feeds[src]
			if !ok {
				continue
			}
			var body []byte
			if binary {
				body = wire.AppendFeed(nil, src, feed)
			} else {
				var err error
				body, err = json.Marshal(map[string]string{"source": src, "lines": feed})
				if err != nil {
					return err
				}
			}
			if err := postOK(addr+"/v1/ingest", contentType, body); err != nil {
				return fmt.Errorf("ingest %s: %v", src, err)
			}
		}
		// 409 means a recovered server is already serving — fine.
		if err := postOK(addr+"/v1/finalize", "application/json", []byte("{}")); err != nil && !isConflict(err) {
			return fmt.Errorf("finalize: %v", err)
		}
		fmt.Fprintf(os.Stderr, "grca-load: bundle loaded and finalized in %v\n",
			time.Since(loadBegan).Round(time.Millisecond))
	}

	// Stream phase: each worker owns a disjoint interface namespace so the
	// generated up events never interleave on one location, and stamps
	// strictly increasing times so the realtime clock only moves forward.
	// Each worker keeps its own latency samples and 429 count — merged
	// into the request-latency percentiles and the per-worker rejection
	// breakdown of the report (a skewed breakdown means one worker was
	// starved, not the whole pipeline).
	type workerStats struct {
		lat      []float64 // ms per accepted ingest request
		rejected int64
	}
	batches := make(chan []byte, workers)
	var sent int64
	stats := make([]workerStats, workers)
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			for body := range batches {
				for {
					reqBegan := time.Now()
					code, err := postCode(addr+"/v1/ingest", contentType, body)
					if err != nil {
						fmt.Fprintf(os.Stderr, "grca-load: %v\n", err)
						return
					}
					if code == http.StatusTooManyRequests {
						st.rejected++
						time.Sleep(50 * time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						fmt.Fprintf(os.Stderr, "grca-load: ingest status %d\n", code)
						return
					}
					st.lat = append(st.lat, float64(time.Since(reqBegan).Microseconds())/1000)
					break
				}
			}
		}(w)
	}
	type jsonEvent struct {
		Name  string    `json:"name"`
		Start time.Time `json:"start"`
		End   time.Time `json:"end"`
		Loc   struct {
			Type string `json:"type"`
			A    string `json:"a"`
		} `json:"loc"`
	}
	ifaceType, err := locus.ParseType("interface")
	if err != nil {
		return err
	}
	// Replica read mix: while the write stream hammers the primary, one
	// reader loops the probe path at the replica. Non-200s (still
	// bootstrapping, not yet finalized) count as unready rather than
	// failing the run — replication lag is the thing being measured.
	var replicaLat []float64
	var replicaUnready int
	stopReads := make(chan struct{})
	var readWG sync.WaitGroup
	if readFrom != "" {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			url := readFrom + probe
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				reqBegan := time.Now()
				resp, err := http.Get(url)
				if err != nil {
					replicaUnready++
					time.Sleep(100 * time.Millisecond)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					replicaUnready++
					time.Sleep(50 * time.Millisecond)
					continue
				}
				replicaLat = append(replicaLat, float64(time.Since(reqBegan).Microseconds())/1000)
			}
		}()
	}
	// Location names repeat mod 64: precompute them so the generator does
	// not spend the shared CPU formatting strings per event.
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("load-r%d", i)
	}
	produced := 0
	for produced < events {
		n := batchSize
		if events-produced < n {
			n = events - produced
		}
		var body []byte
		if binary {
			ins := make([]event.Instance, n)
			for i := range ins {
				at := start.Add(time.Duration(produced+i) * step)
				ins[i] = event.Instance{
					Name: event.InterfaceUp, Start: at, End: at,
					Loc: locus.At(ifaceType, names[(produced+i)%64]),
				}
			}
			body = wire.AppendEvents(nil, ins)
		} else {
			evs := make([]jsonEvent, n)
			for i := range evs {
				at := start.Add(time.Duration(produced+i) * step)
				evs[i].Name = event.InterfaceUp
				evs[i].Start, evs[i].End = at, at
				evs[i].Loc.Type = "interface"
				evs[i].Loc.A = names[(produced+i)%64]
			}
			var err error
			body, err = json.Marshal(map[string]any{"events": evs})
			if err != nil {
				return err
			}
		}
		batches <- body
		produced += n
		atomic.AddInt64(&sent, int64(n))
	}
	close(batches)
	wg.Wait()
	elapsed := time.Since(began)
	close(stopReads)
	readWG.Wait()

	mode := "json"
	if binary {
		mode = "binary"
	}
	var allLat []float64
	rejectedPer := make([]int64, workers)
	var rejected int64
	for w := range stats {
		allLat = append(allLat, stats[w].lat...)
		rejectedPer[w] = stats[w].rejected
		rejected += stats[w].rejected
	}
	sort.Float64s(allLat)
	pct := func(q float64) float64 {
		if len(allLat) == 0 {
			return 0
		}
		return allLat[int(q*float64(len(allLat)-1))]
	}
	report := map[string]any{
		"events":              atomic.LoadInt64(&sent),
		"batch_size":          batchSize,
		"workers":             workers,
		"wire":                mode,
		"seconds":             elapsed.Seconds(),
		"events_per_sec":      float64(atomic.LoadInt64(&sent)) / elapsed.Seconds(),
		"retries_429":         rejected,
		"rejected_per_worker": rejectedPer,
		"ingest_p50_ms":       pct(0.50),
		"ingest_p95_ms":       pct(0.95),
		"ingest_p99_ms":       pct(0.99),
	}
	fmt.Fprintf(os.Stderr, "grca-load: ingest latency p50=%.2fms p95=%.2fms p99=%.2fms over %d requests\n",
		pct(0.50), pct(0.95), pct(0.99), len(allLat))
	if readFrom != "" {
		sort.Float64s(replicaLat)
		rpct := func(q float64) float64 {
			if len(replicaLat) == 0 {
				return 0
			}
			return replicaLat[int(q*float64(len(replicaLat)-1))]
		}
		report["read_from"] = readFrom
		report["replica_reads"] = len(replicaLat)
		report["replica_reads_unready"] = replicaUnready
		report["replica_read_p50_ms"] = rpct(0.50)
		report["replica_read_p95_ms"] = rpct(0.95)
		report["replica_read_p99_ms"] = rpct(0.99)
		fmt.Fprintf(os.Stderr, "grca-load: replica read latency p50=%.2fms p95=%.2fms p99=%.2fms over %d requests (%d unready)\n",
			rpct(0.50), rpct(0.95), rpct(0.99), len(replicaLat), replicaUnready)
	}
	if probe != "" {
		p50, p99, err := probeLatency(addr+probe, probes)
		if err != nil {
			return fmt.Errorf("probe %s: %v", probe, err)
		}
		report["probe"] = probe
		report["probe_p50_ms"] = p50
		report["probe_p99_ms"] = p99
		fmt.Fprintf(os.Stderr, "grca-load: probe %s p50=%.2fms p99=%.2fms over %d requests\n",
			probe, p50, p99, probes)
		if readFrom != "" {
			p50, p99, err := probeLatency(readFrom+probe, probes)
			if err != nil {
				return fmt.Errorf("replica probe %s: %v", probe, err)
			}
			report["replica_probe_p50_ms"] = p50
			report["replica_probe_p99_ms"] = p99
			fmt.Fprintf(os.Stderr, "grca-load: replica probe %s p50=%.2fms p99=%.2fms over %d requests\n",
				probe, p50, p99, probes)
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	fmt.Fprintf(os.Stderr, "grca-load: %d events in %v (%.0f events/s, %d 429 retries)\n",
		report["events"], elapsed.Round(time.Millisecond), report["events_per_sec"], report["retries_429"])
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// probeLatency GETs url n times sequentially and returns the p50/p99
// request latencies in milliseconds — the serve-smoke job probes
// /v1/breakdown before and after the event stream to assert the rollup
// keeps its latency flat as the store grows.
func probeLatency(url string, n int) (p50, p99 float64, err error) {
	if n <= 0 {
		n = 1
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		began := time.Now()
		resp, err := http.Get(url)
		if err != nil {
			return 0, 0, err
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil {
			return 0, 0, cerr
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, statusErr(resp.StatusCode)
		}
		lat = append(lat, float64(time.Since(began).Microseconds())/1000)
	}
	sort.Float64s(lat)
	pct := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return pct(0.50), pct(0.99), nil
}

func postCode(url, contentType string, body []byte) (int, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	return resp.StatusCode, nil
}

type statusErr int

func (e statusErr) Error() string { return fmt.Sprintf("status %d", int(e)) }

func isConflict(err error) bool {
	var se statusErr
	return errors.As(err, &se) && se == http.StatusConflict
}

func postOK(url, contentType string, body []byte) error {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if len(msg) > 0 {
			return fmt.Errorf("%w: %s", statusErr(resp.StatusCode), msg)
		}
		return statusErr(resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	return nil
}
