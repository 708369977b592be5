package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"grca/internal/engine"
	"grca/internal/event"
	"grca/internal/platform"
	"grca/internal/realtime"
	"grca/internal/server"
)

// maxEventDuration mirrors the server's bound on one event's run time
// when it derives each application's streaming grace period.
const maxEventDuration = 15 * time.Minute

// check is one output check's verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

// streamed is one diagnosis the server streamed back in an ingest reply.
type streamed struct {
	app, key, label string
	id              int
	// raw is the diagnosis's bytes with the leading "app" member removed,
	// the form /v1/diagnose returns it in.
	raw []byte
}

const ackCheck = "every ingest acknowledged"

// decodeReplies checks every ingest reply acknowledged its whole batch
// and extracts the streamed diagnoses in order.
func decodeReplies(in *inputs, replies [][]byte) ([]streamed, check) {
	var out []streamed
	for i, body := range replies {
		var r struct {
			Stored    int               `json:"stored"`
			Diagnoses []json.RawMessage `json:"diagnoses"`
		}
		if body == nil {
			return nil, check{ackCheck, false, fmt.Sprintf("batch %d has no 200 reply", i)}
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, check{ackCheck, false, fmt.Sprintf("batch %d reply: %v", i, err)}
		}
		if r.Stored != in.counts[i] {
			return nil, check{ackCheck, false,
				fmt.Sprintf("batch %d: stored %d of %d events", i, r.Stored, in.counts[i])}
		}
		for _, raw := range r.Diagnoses {
			var d struct {
				App     string           `json:"app"`
				Symptom server.EventJSON `json:"symptom"`
				Primary string           `json:"primary"`
			}
			if err := json.Unmarshal(raw, &d); err != nil {
				return nil, check{ackCheck, false, fmt.Sprintf("batch %d diagnosis: %v", i, err)}
			}
			prefix := []byte(`{"app":` + strconv.Quote(d.App) + `,`)
			if !bytes.HasPrefix(raw, prefix) {
				return nil, check{ackCheck, false, fmt.Sprintf("batch %d: diagnosis without leading app", i)}
			}
			out = append(out, streamed{
				app: d.App, label: d.Primary, id: d.Symptom.ID,
				key: labelKey(d.App, d.Symptom.Name, d.Symptom.Loc, d.Symptom.Start),
				raw: append([]byte{'{'}, raw[len(prefix):]...),
			})
		}
	}
	return out, check{ackCheck, true, fmt.Sprintf("%d batches, %d events", len(replies), in.events)}
}

func labelKey(app, name string, loc server.LocationJSON, start time.Time) string {
	return app + "|" + name + "|" + loc.Type + "|" + loc.A + "|" + loc.B + "|" + start.UTC().Format(time.RFC3339Nano)
}

// reference is the in-process replay of the stream through the realtime
// library on the corpus's own system.
type reference struct {
	diags  map[string][]engine.Diagnosis // app → emitted diagnoses in order
	labels map[string]int                // key + "\x00" + primary label → count
	wall   time.Duration
	events int
}

// replayReference adds stream to sys's store and observes each stored
// event through every application's processor in server app order — what
// the server's finisher does, without HTTP, WAL or shards.
func replayReference(sys *platform.System, stream []event.Instance) (*reference, error) {
	procs := make([]*realtime.Processor, len(apps))
	for i, a := range apps {
		_, g, err := a.build()
		if err != nil {
			return nil, fmt.Errorf("%s graph: %w", a.name, err)
		}
		procs[i] = realtime.NewOnStore(sys.Store, sys.View, g, realtime.GraceFor(g, maxEventDuration))
	}
	ref := &reference{diags: map[string][]engine.Diagnosis{}, labels: map[string]int{}, events: len(stream)}
	began := time.Now()
	for i := range stream {
		stored := sys.Store.Add(stream[i])
		for j, p := range procs {
			ds, _ := p.ObserveStored(stored)
			ref.diags[apps[j].name] = append(ref.diags[apps[j].name], ds...)
		}
	}
	ref.wall = time.Since(began)
	for app, ds := range ref.diags {
		for _, d := range ds {
			s := d.Symptom
			loc := server.LocationJSON{Type: s.Loc.Type.String(), A: s.Loc.A, B: s.Loc.B}
			ref.labels[labelKey(app, s.Name, loc, s.Start)+"\x00"+d.Primary()]++
		}
	}
	return ref, nil
}

// checkLabels compares the streamed (app, symptom, location, start) →
// primary label multiset with the reference's.
func checkLabels(got []streamed, ref *reference) check {
	have := map[string]int{}
	for _, s := range got {
		have[s.key+"\x00"+s.label]++
	}
	var diffs []string
	for k, n := range ref.labels {
		if have[k] != n {
			diffs = append(diffs, fmt.Sprintf("%q: served %d, reference %d", k, have[k], n))
		}
	}
	for k, n := range have {
		if _, ok := ref.labels[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%q: served %d, reference 0", k, n))
		}
	}
	sort.Strings(diffs)
	name := "streamed labels equal the in-process reference"
	if len(diffs) > 0 {
		return check{name, false, fmt.Sprintf("%d differences, first: %s", len(diffs), diffs[0])}
	}
	return check{name, true, fmt.Sprintf("%d diagnoses", len(got))}
}

// diagnoseAll fetches every application's POST /v1/diagnose {all} body.
func diagnoseAll(c *http.Client, base string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, a := range apps {
		body, err := okBody(c, http.MethodPost, base+"/v1/diagnose", "application/json",
			[]byte(`{"app":"`+a.name+`","all":true}`))
		if err != nil {
			return nil, err
		}
		out[a.name] = body
	}
	return out, nil
}

// checkByteIdentical requires each streamed diagnosis to equal, byte for
// byte, the server's /v1/diagnose answer for the same symptom at the end.
func checkByteIdentical(got []streamed, all map[string][]byte) check {
	name := "streamed diagnoses byte-identical to /v1/diagnose"
	byID := map[string]map[int][]byte{}
	for app, body := range all {
		var r struct {
			Diagnoses []json.RawMessage `json:"diagnoses"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return check{name, false, fmt.Sprintf("%s body: %v", app, err)}
		}
		byID[app] = map[int][]byte{}
		for _, raw := range r.Diagnoses {
			var d struct {
				Symptom struct {
					ID int `json:"id"`
				} `json:"symptom"`
			}
			if err := json.Unmarshal(raw, &d); err != nil {
				return check{name, false, fmt.Sprintf("%s diagnosis: %v", app, err)}
			}
			byID[app][d.Symptom.ID] = raw
		}
	}
	bad := 0
	first := ""
	for _, s := range got {
		if !bytes.Equal(s.raw, byID[s.app][s.id]) {
			if bad == 0 {
				first = fmt.Sprintf("%s symptom %d", s.app, s.id)
			}
			bad++
		}
	}
	if bad > 0 {
		return check{name, false, fmt.Sprintf("%d of %d differ, first: %s", bad, len(got), first)}
	}
	return check{name, true, fmt.Sprintf("%d of %d", len(got), len(got))}
}

// checkBodies requires two sets of per-app bodies to be byte-identical.
func checkBodies(name string, want, got map[string][]byte) check {
	for _, a := range apps {
		if !bytes.Equal(want[a.name], got[a.name]) {
			return check{name, false, fmt.Sprintf("%s: %d bytes vs %d bytes", a.name, len(want[a.name]), len(got[a.name]))}
		}
	}
	return check{name, true, fmt.Sprintf("%d apps", len(apps))}
}

// breakdowns fetches every application's /v1/breakdown body.
func breakdowns(c *http.Client, base string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, a := range apps {
		body, err := okBody(c, http.MethodGet, base+"/v1/breakdown?app="+a.name, "", nil)
		if err != nil {
			return nil, err
		}
		out[a.name] = body
	}
	return out, nil
}

func checkEqual(name string, want, got int) check {
	return check{name, want == got, fmt.Sprintf("want %d, got %d", want, got)}
}
