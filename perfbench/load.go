package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grca/internal/wire"
)

// streamResult is what the closed-loop stream phase observed.
type streamResult struct {
	wall time.Duration
	// ingestMs holds one sample per ingest attempt; a refused (429)
	// attempt is +Inf, so it misses any latency limit.
	ingestMs           []float64
	readMs             []float64
	events             int
	attempted, refused int
	failed             int
	firstErr           error
	lastAck            time.Time
}

// symptomRef names a symptom the server has already streamed back, for
// the reader's POST /v1/diagnose {id}.
type symptomRef struct {
	app string
	id  int
}

// runStream sends bodies lo..hi-1 on writers closed-loop connections
// (each waits for its reply before sending the next), storing each 200
// reply in replies, and, with reader, loops Result Browser reads on one
// more connection until the writers finish.
func runStream(c *http.Client, base string, in *inputs, lo, hi int, replies [][]byte, writers int, reader bool, tr *tracer, parent int) *streamResult {
	res := &streamResult{}
	for _, n := range in.counts[lo:hi] {
		res.events += n
	}
	var mu sync.Mutex // guards res fields written by several goroutines
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	var latest atomic.Pointer[symptomRef]
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			attempted, refused := 0, 0
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					break
				}
				for {
					attempted++
					sp := tr.begin("client.ingest", parent)
					t0 := time.Now()
					code, body, err := do(c, http.MethodPost, base+"/v1/ingest", wire.ContentType, in.bodies[i])
					ms := float64(time.Since(t0).Nanoseconds()) / 1e6
					tr.end(sp)
					if err == nil && code == http.StatusTooManyRequests {
						refused++
						lat = append(lat, math.Inf(1))
						time.Sleep(50 * time.Millisecond)
						continue
					}
					if err != nil || code != http.StatusOK {
						lat = append(lat, math.Inf(1))
						fail(fmt.Errorf("ingest batch %d: status %d: %v %.200s", i, code, err, body))
						break
					}
					lat = append(lat, ms)
					replies[i] = body
					if ref := lastSymptom(body); ref != nil {
						latest.Store(ref)
					}
					break
				}
			}
			mu.Lock()
			res.ingestMs = append(res.ingestMs, lat...)
			res.attempted += attempted
			res.refused += refused
			res.lastAck = time.Now()
			mu.Unlock()
		}()
	}
	stopReads := make(chan struct{})
	var readWG sync.WaitGroup
	if reader {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			browse := []string{"bgpflap", "cdn", "pim"}
			var lat []float64
			for i := 0; ; i++ {
				select {
				case <-stopReads:
					mu.Lock()
					res.readMs = lat
					mu.Unlock()
					return
				default:
				}
				method, path, body := http.MethodGet, "", []byte(nil)
				switch i % 3 {
				case 0:
					path = "/v1/breakdown?app=" + browse[(i/3)%len(browse)]
				case 1:
					ref := latest.Load()
					if ref == nil {
						continue
					}
					method, path = http.MethodPost, "/v1/diagnose"
					body = []byte(`{"app":"` + ref.app + `","id":` + strconv.Itoa(ref.id) + `}`)
				case 2:
					path = "/v1/events?limit=100"
				}
				sp := tr.begin("client.read", parent)
				t0 := time.Now()
				code, data, err := do(c, method, base+path, "application/json", body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.end(sp)
				if err != nil || code != http.StatusOK {
					lat = append(lat, math.Inf(1))
					fail(fmt.Errorf("read %s: status %d: %v %.200s", path, code, err, data))
					continue
				}
				lat = append(lat, ms)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(began)
	close(stopReads)
	readWG.Wait()
	return res
}

// lastSymptom finds the last streamed diagnosis's app and symptom ID in
// an ingest reply without decoding the whole body (the decode would take
// CPU from the server inside the timed region).
func lastSymptom(body []byte) *symptomRef {
	i := bytes.LastIndex(body, []byte(`{"app":"`))
	if i < 0 {
		return nil
	}
	var d struct {
		App     string `json:"app"`
		Symptom struct {
			ID int `json:"id"`
		} `json:"symptom"`
	}
	dec := json.NewDecoder(bytes.NewReader(body[i:]))
	if dec.Decode(&d) != nil || d.Symptom.ID == 0 {
		return nil
	}
	return &symptomRef{app: d.App, id: d.Symptom.ID}
}

// quantile is the q-quantile of samples by the nearest-rank rule
// (+Inf samples sort last).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(r, len(s)-1))]
}
