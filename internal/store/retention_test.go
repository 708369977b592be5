package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"grca/internal/event"
	"grca/internal/locus"
)

const window = 6 * time.Hour

// sweepCounter registers an OnEvict hook counting sweeps (hook calls
// with more than zero instances) and evicted instances.
func sweepCounter(s Store) (sweeps, evicted *int) {
	sweeps, evicted = new(int), new(int)
	s.OnEvict(func(gone []*event.Instance, _ time.Time) {
		*sweeps++
		*evicted += len(gone)
	})
	return sweeps, evicted
}

// scanned reads the process-wide count of instances evictions examined.
func scanned() int64 { return mEvictScanned.Value() }

func tick(name string, at time.Time, dur time.Duration, loc string) event.Instance {
	return event.Instance{Name: name, Start: at, End: at.Add(dur), Loc: locus.At(locus.Router, loc)}
}

// assertWindowLive fails if any inserted instance whose End is at or
// after head−retention is missing from s.
func assertWindowLive(t *testing.T, s Store, ins []event.Instance, head time.Time) {
	t.Helper()
	cut := head.Add(-window)
	for _, in := range ins {
		if in.End.Before(cut) {
			continue
		}
		if _, ok := s.Get(in.ID); !ok {
			t.Fatalf("in-window instance %d (End %v, head %v) was evicted", in.ID, in.End, head)
		}
	}
}

// TestRetentionLongLivedEvent is the adversarial case: one event whose End
// lies 1000h out must not drag the window forward and evict every later
// insert on arrival. Sweeps stay one per quantum of head movement and
// each examines O(evicted) instances.
func TestRetentionLongLivedEvent(t *testing.T) {
	s := New()
	s.SetRetention(window)
	sweeps, evicted := sweepCounter(s)
	scanned0 := scanned()
	ins := []event.Instance{*s.Add(tick("long", t0, 1000*time.Hour, "r0"))}
	const n = 20000
	for i := 1; i <= n; i++ {
		ins = append(ins, *s.Add(tick("tick", t0.Add(time.Duration(i)*10*time.Second), 0, fmt.Sprintf("r%d", i%7))))
	}
	head := t0.Add(n * 10 * time.Second)
	assertWindowLive(t, s, ins, head)
	if live := s.Len(); live < int(window/(10*time.Second)) {
		t.Fatalf("live = %d, the 6h window alone holds %d", live, window/(10*time.Second))
	}
	// The head moves 20000×10s ≈ 55.6h; one sweep per 1.5h quantum.
	if *sweeps > 40 {
		t.Fatalf("%d sweeps for %d inserts; want one per quantum (≤ 40)", *sweeps, n)
	}
	if *evicted == 0 {
		t.Fatal("nothing evicted")
	}
	if n := scanned() - scanned0; n > 3*int64(*evicted)+int64(2**sweeps) {
		t.Fatalf("evictions examined %d instances for %d evicted", n, *evicted)
	}
	if first, last, _ := s.Span(); !first.Equal(t0) || !last.Equal(t0.Add(1000*time.Hour)) {
		t.Fatalf("Span = %v..%v, want the long event's bounds", first, last)
	}
}

// TestRetentionLateArrival uploads two sources one after the other, as
// a collector does with per-source feed files: the second source's early
// events are already behind the window and are dropped on arrival
// without a sweep.
func TestRetentionLateArrival(t *testing.T) {
	s := New()
	s.SetRetention(window)
	sweeps, evicted := sweepCounter(s)
	scanned0 := scanned()
	var ins []event.Instance
	const perSource = 2 * 24 * 60 // two days of minutes
	for i := 0; i < perSource; i++ {
		ins = append(ins, *s.Add(tick("a", t0.Add(time.Duration(i)*time.Minute), 30*time.Second, "ra")))
	}
	sweepsA, scannedA := *sweeps, scanned()-scanned0
	lateBefore := *evicted
	for i := 0; i < perSource; i++ {
		before := scanned()
		ins = append(ins, *s.Add(tick("b", t0.Add(time.Duration(i)*time.Minute), 30*time.Second, "rb")))
		if n := scanned() - before; n != 0 {
			t.Fatalf("insert %d of the late source ran a sweep (examined %d)", i, n)
		}
	}
	head := t0.Add((perSource - 1) * time.Minute)
	assertWindowLive(t, s, ins, head)
	late := *evicted - lateBefore
	if late < perSource-int(window/time.Minute)-int(window/4/time.Minute) {
		t.Fatalf("only %d of the late source's %d events were dropped on arrival", late, perSource)
	}
	if *sweeps-sweepsA != late {
		t.Fatalf("late inserts made %d hook calls for %d drops; want one each", *sweeps-sweepsA, late)
	}
	if scannedA > 3*int64(lateBefore)+int64(2*sweepsA) {
		t.Fatalf("first source's sweeps examined %d instances for %d evicted", scannedA, lateBefore)
	}
}

// windowModel is the brute-force retention model: the live set is every
// inserted instance whose End quantum is not older than the quantum of
// (latest inserted Start − retention).
func windowModel(ins []event.Instance, retention time.Duration) map[int]bool {
	if len(ins) == 0 {
		return map[int]bool{}
	}
	b := newEndBuckets(retention)
	head := ins[0].Start
	for _, in := range ins {
		if in.Start.After(head) {
			head = in.Start
		}
	}
	ck := b.key(head.Add(-retention))
	live := map[int]bool{}
	for _, in := range ins {
		if b.key(in.End) >= ck {
			live[in.ID] = true
		}
	}
	return live
}

func liveSet(s Store) map[int]bool {
	_, _, ins := s.Dump()
	m := make(map[int]bool, len(ins))
	for _, in := range ins {
		m[in.ID] = true
	}
	return m
}

// randomStream draws skewed, late, overlapping and long-lived events.
func randomStream(rng *rand.Rand, n int) []event.Instance {
	out := make([]event.Instance, n)
	clock := t0
	for i := range out {
		clock = clock.Add(time.Duration(rng.Intn(300)) * time.Second)
		at := clock
		switch r := rng.Intn(20); {
		case r < 3: // late: hours to days behind the stream
			at = at.Add(-time.Duration(rng.Intn(72*60)) * time.Minute)
		case r == 3: // skewed into the future
			at = at.Add(time.Duration(rng.Intn(12*60)) * time.Minute)
		}
		dur := time.Duration(rng.Intn(600)) * time.Second
		if rng.Intn(50) == 0 {
			dur = time.Duration(rng.Intn(2000)) * time.Hour
		}
		out[i] = event.Instance{
			Name: fmt.Sprintf("ev%d", rng.Intn(4)), Start: at, End: at.Add(dur),
			Loc: locus.At(locus.Router, fmt.Sprintf("r%d", rng.Intn(9))),
		}
	}
	return out
}

// TestRetentionProperty checks the store against the brute-force model
// after every insert, under random streams, batching and sharding: the
// live set is exactly the model's, Span is exact, and a sharded store
// keeps every event the single store keeps.
func TestRetentionProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := randomStream(rng, 1500)
		single := New()
		single.SetRetention(window)
		batched := New()
		batched.SetRetention(window)
		sharded := NewSharded(3, nil)
		sharded.SetRetention(window)
		var ins []event.Instance
		for i := 0; i < len(stream); {
			// A batch of 1–16 inserts: single and sharded per insert,
			// batched through one AddAll.
			batch := stream[i:min(len(stream), i+1+rng.Intn(16))]
			i += len(batch)
			for _, in := range batch {
				stored := *single.Add(in)
				ins = append(ins, stored)
				sharded.Add(in)
			}
			batched.AddAll(batch)

			want := windowModel(ins, window)
			if got := liveSet(single); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d after %d inserts: live set has %d, model %d", seed, len(ins), len(got), len(want))
			}
			assertSpanExact(t, single, ins, want)
		}
		if !dumpsEqual(single, batched) {
			t.Fatalf("seed %d: batched AddAll diverged from per-insert Add", seed)
		}
		sl, shl := liveSet(single), liveSet(sharded)
		for id := range sl {
			if !shl[id] {
				t.Fatalf("seed %d: sharded store evicted %d, which the single store keeps", seed, id)
			}
		}
		// Each shard is the model applied to its own inserts: its head
		// never leads the global one.
		for si := 0; si < sharded.NumShards(); si++ {
			var mine []event.Instance
			for _, in := range ins {
				if sharded.ShardFor(in.Loc) == si {
					mine = append(mine, in)
				}
			}
			if got, want := liveSet(sharded.Shard(si)), windowModel(mine, window); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: shard %d live set has %d, model %d", seed, si, len(got), len(want))
			}
		}
	}
}

func assertSpanExact(t *testing.T, s *Memory, ins []event.Instance, live map[int]bool) {
	t.Helper()
	var first, last time.Time
	n := 0
	for _, in := range ins {
		if !live[in.ID] {
			continue
		}
		if n == 0 || in.Start.Before(first) {
			first = in.Start
		}
		if n == 0 || in.End.After(last) {
			last = in.End
		}
		n++
	}
	f, l, ok := s.Span()
	if ok != (n > 0) || !f.Equal(first) || !l.Equal(last) {
		t.Fatalf("Span = %v..%v %v, brute force %v..%v", f, l, ok, first, last)
	}
}

func dumpsEqual(a, b Store) bool {
	ab, an, ai := a.Dump()
	bb, bn, bi := b.Dump()
	return ab == bb && an == bn && reflect.DeepEqual(ai, bi)
}

// TestEvictBeforeWithRetention pins the explicit sweep with retention
// on: exactly the instances ending before the cutoff go, whatever
// quantum they share with survivors, and the survivors still age out of
// the window afterwards.
func TestEvictBeforeWithRetention(t *testing.T) {
	s := New()
	s.SetRetention(window)
	var ins []event.Instance
	for i := 0; i < 120; i++ {
		ins = append(ins, *s.Add(tick("e", t0.Add(time.Duration(i)*time.Minute), 0, "r")))
	}
	cutoff := t0.Add(37 * time.Minute)
	if n := s.EvictBefore(cutoff); n != 37 {
		t.Fatalf("evicted %d, want 37", n)
	}
	if first, _, _ := s.Span(); !first.Equal(cutoff) {
		t.Fatalf("first = %v, want %v", first, cutoff)
	}
	if got := s.Query("e", t0, t0.Add(time.Hour)); len(got) != 24 || !got[0].Start.Equal(cutoff) {
		t.Fatalf("query after split: %d results", len(got))
	}
	// The survivors of the split quantum still evict with it later.
	s.Add(tick("e", t0.Add(30*time.Hour), 0, "r"))
	if n := s.Len(); n != 1 {
		t.Fatalf("after the head moved 30h, %d live; want only the head", n)
	}
}

// BenchmarkStoreAdd is the store layer of the performance ledger: Add
// throughput with retention off, on (an in-order stream), behind one
// long-lived event, and under a late source upload.
func BenchmarkStoreAdd(b *testing.B) {
	stream := func(i int) event.Instance {
		at := t0.Add(time.Duration(i) * 10 * time.Second)
		return event.Instance{Name: "tick", Start: at, End: at, Loc: locus.At(locus.Router, "r0")}
	}
	run := func(b *testing.B, retention time.Duration, setup func(*Memory), next func(i int) event.Instance) {
		s := New()
		s.SetRetention(retention)
		if setup != nil {
			setup(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Add(next(i))
		}
	}
	b.Run("off", func(b *testing.B) { run(b, 0, nil, stream) })
	b.Run("on", func(b *testing.B) { run(b, window, nil, stream) })
	b.Run("adversarial", func(b *testing.B) {
		run(b, window, func(s *Memory) {
			s.Add(event.Instance{Name: "long", Start: t0, End: t0.Add(1000 * time.Hour), Loc: locus.At(locus.Router, "r1")})
		}, stream)
	})
	b.Run("late-arrival", func(b *testing.B) {
		// Two days of one source are in; every insert of the next source
		// starts two days behind the head.
		const ahead = 2 * 24 * 360
		run(b, window, func(s *Memory) {
			for i := 0; i < ahead; i++ {
				s.Add(stream(i))
			}
		}, func(i int) event.Instance { return stream(i % ahead) })
	})
}
