package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"grca/internal/apps/backbone"
	"grca/internal/apps/bgpflap"
	"grca/internal/apps/cdn"
	"grca/internal/apps/pim"
	"grca/internal/collector"
	"grca/internal/dgraph"
	"grca/internal/event"
	"grca/internal/locus"
	"grca/internal/platform"
	"grca/internal/simnet"
	"grca/internal/wire"
)

// A workload is one traffic mix against `grca serve`.
type workload struct {
	name string
	why  string
	// corpus is the simulated bundle the server is set up from; Seed is
	// filled from the command line.
	corpus simnet.Config
	// synthetic streams interface-up events at locations outside the
	// topology; otherwise the stream is shifted copies of the corpus's own
	// normalized events.
	synthetic bool
	// perSecond is the stream size per --seconds: events for the
	// synthetic stream, corpus copies otherwise.
	perSecond float64
	batch     int
	// writers is the number of closed-loop ingest connections (0 = nproc).
	writers int
	// reader adds one connection of Result Browser reads beside the writer.
	reader    bool
	retention time.Duration
	replica   bool
	// rounds is how many server lifetimes a run measures, each a fresh
	// process and data dir set up and sent the whole stream; rates,
	// set-up time and peak memory are medians across rounds.
	rounds int
	// segments splits each round's stream into consecutively timed parts
	// on the same server; the ingest rate is the median over all parts.
	segments int
}

// size is the stream length for a run of the given seconds: fixed per
// argument, never per measured speed, so every commit ingests the same
// events and restart_s / rss_mb / data-dir size stay comparable.
func (w workload) size(seconds int) int {
	return max(1, int(math.Round(w.perSecond*float64(seconds))))
}

// workloads are the command's traffic mixes. BENCHMARK.json gates ingest
// and retain-replica; diagnose's figures drift too far between runs on a
// shared machine to gate (README, "Measured spread").
var workloads = []workload{
	{
		name: "ingest",
		why:  "commit path alone: decode, admission, journal fsync, store put, WAL commit; no symptoms, nothing evicted",
		corpus: simnet.Config{PoPs: 3, PERsPerPoP: 2, SessionsPerPER: 6, Duration: 48 * time.Hour,
			BGPFlapIncidents: 80, CDNIncidents: 40},
		synthetic: true, perSecond: 100_000, batch: 1000, rounds: 3, segments: 1,
	},
	{
		name: "diagnose",
		why:  "realtime finisher, engine and rollup under live load (~15% symptoms), with Result Browser reads beside writes",
		corpus: simnet.Config{PoPs: 4, PERsPerPoP: 2, SessionsPerPER: 8, MVPNFraction: 0.3,
			Duration: 7 * 24 * time.Hour, BGPFlapIncidents: 300, CDNIncidents: 100, PIMIncidents: 100},
		perSecond: 2.5, batch: 500, writers: 1, reader: true, rounds: 5, segments: 1,
	},
	{
		name: "retain-replica",
		why:  "the operator configuration: retention 6h evicting, snapshot-on-evict, WAL shipping to a live follower",
		corpus: simnet.Config{PoPs: 4, PERsPerPoP: 2, SessionsPerPER: 8, MVPNFraction: 0.3,
			Duration: 48 * time.Hour, BGPFlapIncidents: 200, CDNIncidents: 60, PIMIncidents: 60,
			NoiseEventsPerKind: 2000},
		perSecond: 3, batch: 500, writers: 1, retention: 6 * time.Hour, replica: true, rounds: 1, segments: 6,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// appSpec mirrors the server's application order: streamed diagnoses of
// one event come out in this order, and the reference replay must
// observe in it too.
type appSpec struct {
	name  string
	build func() (*event.Library, *dgraph.Graph, error)
}

var apps = []appSpec{
	{"bgpflap", bgpflap.Build},
	{"cdn", cdn.Build},
	{"pim", pim.Build},
	{"backbone", backbone.Build},
}

// feedOrder is the upload order of the raw feeds at set-up (routing
// feeds first, as the collector expects).
var feedOrder = []string{
	collector.SourceOSPFMon, collector.SourceBGPMon, collector.SourceSyslog,
	collector.SourceSNMP, collector.SourceTACACS, collector.SourceWorkflow,
	collector.SourceLayer1, collector.SourcePerfMon, collector.SourceKeynote,
	collector.SourceServer,
}

// inputs is everything one run sends to the server, generated from the
// seed before anything is timed.
type inputs struct {
	bundle platform.Bundle
	// sys is the in-process reference system (platform.FromDataset);
	// the reference replay adds the stream to its store.
	sys *platform.System
	// feeds are the set-up bodies (binary feed batches) in upload order.
	feeds [][]byte
	// bodies are the stream's ingest bodies; counts their event counts.
	bodies [][]byte
	counts []int
	events int
	// stream is the decoded stream in send order (copies workloads only:
	// the reference replay input).
	stream []event.Instance
	// encode is the generator's own encoding time for the stream bodies.
	encode time.Duration
	sha256 string
}

// generate builds a workload's bundle and stream from seed. It retries
// the corpus on a derived seed when the simulator cannot place an
// incident, so every seed yields a run.
func generate(w workload, seed int64, seconds int) (*inputs, error) {
	d, err := corpus(w, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{bundle: platform.BundleFromDataset(d)}
	if in.sys, err = platform.FromDataset(d, platform.Options{}); err != nil {
		return nil, fmt.Errorf("assemble corpus: %w", err)
	}
	for _, src := range feedOrder {
		if feed, ok := in.bundle.Feeds[src]; ok {
			in.feeds = append(in.feeds, wire.AppendFeed(nil, src, feed))
		}
	}
	var batches [][]event.Instance
	if w.synthetic {
		batches, err = syntheticStream(in.bundle, seed, w.size(seconds), w.batch)
		if err != nil {
			return nil, err
		}
	} else {
		in.stream = copyStream(in.sys, in.bundle.Duration, w.size(seconds))
		for lo := 0; lo < len(in.stream); lo += w.batch {
			batches = append(batches, in.stream[lo:min(lo+w.batch, len(in.stream))])
		}
	}
	began := time.Now()
	for _, b := range batches {
		in.bodies = append(in.bodies, wire.AppendEvents(nil, b))
		in.counts = append(in.counts, len(b))
		in.events += len(b)
	}
	in.encode = time.Since(began)
	in.sha256 = hashBodies(in.feeds, in.bodies)
	return in, nil
}

// corpus generates the workload's simulated dataset on seed, falling back
// to derived seeds when the simulator fails.
func corpus(w workload, seed int64) (*simnet.Dataset, error) {
	var err error
	for attempt := int64(0); attempt < 5; attempt++ {
		cfg := w.corpus
		cfg.Seed = seed + attempt*1_000_003
		var d *simnet.Dataset
		if d, err = simnet.Generate(cfg); err == nil {
			return d, nil
		}
	}
	return nil, fmt.Errorf("generate %s corpus on seed %d: %w", w.name, seed, err)
}

// syntheticStream is the ingest workload's stream: `interface up` events
// at 64 seeded locations that exist in no topology, after the corpus
// window, with strictly increasing seeded timestamps so the realtime
// clock only moves forward.
func syntheticStream(b platform.Bundle, seed int64, events, batch int) ([][]event.Instance, error) {
	iface, err := locus.ParseType("interface")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	locs := make([]locus.Location, 64)
	for i := range locs {
		locs[i] = locus.At(iface, fmt.Sprintf("perf-%08x-r%d", rng.Uint32(), i))
	}
	at := b.Start.Add(b.Duration)
	all := make([]event.Instance, events)
	for i := range all {
		at = at.Add(time.Duration(500+rng.Intn(1000)) * time.Microsecond)
		all[i] = event.Instance{Name: event.InterfaceUp, Start: at, End: at, Loc: locs[rng.Intn(len(locs))]}
	}
	var out [][]event.Instance
	for lo := 0; lo < events; lo += batch {
		out = append(out, all[lo:min(lo+batch, events)])
	}
	return out, nil
}

// copyStream is the corpus's own normalized events sorted by End, shifted
// by k×window for k=1..copies, with IDs cleared so the server assigns
// them.
func copyStream(sys *platform.System, window time.Duration, copies int) []event.Instance {
	var base []event.Instance
	for _, name := range sys.Store.Names() {
		for _, in := range sys.Store.All(name) {
			base = append(base, *in)
		}
	}
	sort.SliceStable(base, func(i, j int) bool {
		if !base[i].End.Equal(base[j].End) {
			return base[i].End.Before(base[j].End)
		}
		return base[i].ID < base[j].ID
	})
	out := make([]event.Instance, 0, len(base)*copies)
	for k := 1; k <= copies; k++ {
		shift := time.Duration(k) * window
		for _, in := range base {
			in.ID = 0
			in.Start, in.End = in.Start.Add(shift), in.End.Add(shift)
			out = append(out, in)
		}
	}
	return out
}

// hashBodies is the SHA-256 of every generated request body, each
// length-prefixed, in send order.
func hashBodies(groups ...[][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, g := range groups {
		for _, b := range g {
			binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
			h.Write(n[:])
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// decoded is the stream as instances: the kept copy for copies
// workloads, the bodies decoded for the synthetic one.
func (in *inputs) decoded() []event.Instance {
	if in.stream != nil {
		return in.stream
	}
	out := make([]event.Instance, 0, in.events)
	for _, body := range in.bodies {
		b, err := wire.Decode(body)
		if err != nil {
			panic(fmt.Sprintf("decode a body this process encoded: %v", err)) // a bug, not input
		}
		out = append(out, b.Events...)
	}
	return out
}
