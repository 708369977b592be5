package replica

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"grca/internal/obs"
	"grca/internal/wal"
)

var (
	mJournalShipped = obs.GetCounter("replica.source.journal.records")
	mFollowers      = obs.GetGauge("replica.source.followers")
)

// SourceConfig wires a Source into the serving pipeline it streams from.
type SourceConfig struct {
	// BootID identifies this primary incarnation; a follower refuses to
	// resume across a boot-ID change (recovery may renumber sequences).
	BootID string
	// Shards is the pipeline's shard count.
	Shards int
	// JournalPath returns shard i's ingest journal path.
	JournalPath func(i int) string
	// Sealed returns, per shard, the highest sequence number that shard's
	// journal can no longer gain records at or below — the merge's
	// emission watermark.
	Sealed func() []int
	// Registry tracks followers.
	Registry *Registry
	// Poll is the file-tail poll cadence (default 50ms).
	Poll time.Duration
	// Heartbeat is the idle heartbeat cadence (default 1s).
	Heartbeat time.Duration
}

// journalBudget caps the payload bytes one merge pass reads from each
// shard journal, bounding what a catching-up follower makes the primary
// hold in memory.
const journalBudget = 1 << 20

func (c *SourceConfig) defaults() {
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
}

// Source serves the replication stream off the primary's on-disk state.
// It holds no locks of the serving pipeline: it tails the journal files
// the appliers write, and consults the sealed-sequence watermark to emit
// the merged journal in a total order no later append can contradict.
type Source struct {
	cfg    SourceConfig
	budget int // per-shard journal bytes per merge pass
}

// NewSource returns a source over cfg.
func NewSource(cfg SourceConfig) *Source {
	cfg.defaults()
	return &Source{cfg: cfg, budget: journalBudget}
}

// BootID returns the primary incarnation this source streams for.
func (s *Source) BootID() string { return s.cfg.BootID }

// Shards returns the shard count.
func (s *Source) Shards() int { return s.cfg.Shards }

// JournalSizes returns each shard journal's current byte size (0 for a
// journal not yet created).
func (s *Source) JournalSizes() []int64 {
	out := make([]int64, s.cfg.Shards)
	for i := range out {
		if st, err := os.Stat(s.cfg.JournalPath(i)); err == nil {
			out[i] = st.Size()
		}
	}
	return out
}

// heartbeat encodes the current lag heartbeat.
func (s *Source) heartbeat(b []byte) []byte {
	sealed := s.cfg.Sealed()
	minSealed := -1
	for i, v := range sealed {
		if i == 0 || v < minSealed {
			minSealed = v
		}
	}
	return AppendHeartbeat(b, minSealed, s.JournalSizes())
}

// fileTail incrementally reads one append-only framed file through one
// reused buffer, carrying a torn tail (a frame still being written) at
// the buffer's front across fills.
type fileTail struct {
	path string
	f    *os.File
	off  int64  // next read offset
	buf  []byte // read buffer; buf[:n] is the carried torn frame
	n    int
}

// tailBuf is a tail's read buffer size. A frame larger than it grows the
// buffer for that frame only.
const tailBuf = 256 << 10

// fill reads what is currently readable and pushes each complete frame's
// payload to push; a payload aliases the tail's buffer and is valid only
// during the call. A positive budget stops the pass once that many
// payload bytes were delivered (reads go in chunks of budget bytes, or
// of the rest of a frame whose header is in), so a long backlog is
// consumed over several passes. It reports
// whether any frame was delivered and whether the pass reached the end
// of the file.
func (t *fileTail) fill(budget int, push func(payload []byte) error) (progress, eof bool, err error) {
	if t.f == nil {
		f, err := os.Open(t.path)
		if os.IsNotExist(err) {
			return false, true, nil
		}
		if err != nil {
			return false, false, err
		}
		t.f = f
	}
	if t.buf == nil {
		t.buf = make([]byte, tailBuf)
	}
	defer t.shrink()
	delivered := 0
	for budget <= 0 || delivered < budget {
		if t.n == len(t.buf) {
			if err := t.grow(); err != nil {
				return progress, false, err
			}
		}
		end := len(t.buf)
		if budget > 0 {
			// Read budget bytes, or at least the rest of a carried frame
			// whose header is in.
			want := budget
			if t.n >= wal.FrameHeader {
				want = max(want, t.frameLen()-t.n)
			}
			end = min(end, t.n+want)
		}
		n, rerr := t.f.ReadAt(t.buf[t.n:end], t.off)
		t.off += int64(n)
		rest := t.buf[:t.n+n]
		for {
			payload, r2, ok := wal.ReadFrame(rest)
			if !ok {
				break
			}
			if err := push(payload); err != nil {
				return progress, false, err
			}
			progress = true
			delivered += len(payload)
			rest = r2
		}
		t.n = copy(t.buf, rest)
		if rerr == io.EOF {
			return progress, true, nil
		}
		if rerr != nil {
			return progress, false, rerr
		}
	}
	return progress, false, nil
}

// grow makes room for the carried frame when it fills the buffer: the
// frame's length header says how large it will be.
func (t *fileTail) grow() error {
	need := t.frameLen()
	if need <= len(t.buf) || need > wal.FrameHeader+wal.MaxRecord {
		return fmt.Errorf("replica: %s: corrupt frame at offset %d", t.path, t.off-int64(t.n))
	}
	nb := make([]byte, need)
	copy(nb, t.buf[:t.n])
	t.buf = nb
	return nil
}

// frameLen is the framed size of the carried frame, from its header.
func (t *fileTail) frameLen() int {
	return wal.FrameHeader + int(binary.LittleEndian.Uint32(t.buf[:4]))
}

// shrink returns to the standard buffer once an oversized frame is gone.
func (t *fileTail) shrink() {
	if len(t.buf) > tailBuf && t.n <= tailBuf {
		nb := make([]byte, tailBuf)
		copy(nb, t.buf[:t.n])
		t.buf = nb
	}
}

func (t *fileTail) close() {
	if t.f != nil {
		t.f.Close() //nolint:errcheck // read-only
		t.f = nil
	}
}

// streamConn is one live stream connection's write side: frames are
// batched into buf and flushed through w (an http.Flusher-backed writer
// in the server, a plain buffer in tests).
type streamConn struct {
	w     io.Writer
	flush func()
	buf   []byte
}

func (c *streamConn) push() error {
	if len(c.buf) == 0 {
		return nil
	}
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	if err == nil && c.flush != nil {
		c.flush()
	}
	return err
}

// jrec is one journal record queued for merge.
type jrec struct {
	seq     int
	payload []byte
}

// ServeJournal streams the merged ingest journal to one follower: every
// shard journal's records, merged into global sequence order, each
// tagged with its owner shard, starting after sequence `from`. The
// stream tails the files live and ends only on stop (server shutdown)
// or a write error (follower gone); with stop already closed it is one
// pass that ships everything readable and sealed, then ends. flush may
// be nil.
func (s *Source) ServeJournal(w io.Writer, flush func(), followerID string, from int, stop <-chan struct{}) error {
	s.cfg.Registry.Attach(followerID)
	defer s.cfg.Registry.Detach(followerID)
	mFollowers.Set(int64(len(s.cfg.Registry.Status())))

	conn := &streamConn{w: w, flush: flush}
	conn.buf = AppendHello(conn.buf, s.cfg.BootID, s.cfg.Shards, StreamJournal, from)
	if err := conn.push(); err != nil {
		return err
	}

	tails := make([]*fileTail, s.cfg.Shards)
	queues := make([][]jrec, s.cfg.Shards)
	// drained[i]: shard i's last pass read to the end of its journal.
	drained := make([]bool, s.cfg.Shards)
	for i := range tails {
		tails[i] = &fileTail{path: s.cfg.JournalPath(i)}
		defer tails[i].close()
	}
	shipped := from
	lastBeat := obs.Now()
	for {
		// The watermark snapshot MUST precede the file reads: a record
		// durably appended but not yet read in this pass is still pending
		// (done follows the fsync), so its shard's watermark observed here
		// sits below it and the merge gate cannot emit past it. Sampling
		// sealed after the fill would let a concurrent commit advance the
		// watermark over records this pass never saw — the merge would
		// run ahead and the resume skip below would then drop them.
		sealed := s.cfg.Sealed()
		for i := range tails {
			var err error
			_, drained[i], err = tails[i].fill(s.budget, func(payload []byte) error {
				seq, err := JournalSeq(payload)
				if err != nil {
					return fmt.Errorf("replica: shard %d journal: %v", i, err)
				}
				queues[i] = append(queues[i], jrec{seq, append([]byte(nil), payload...)})
				return nil
			})
			if err != nil {
				conn.buf = AppendEOF(conn.buf, err.Error())
				conn.push() //nolint:errcheck // stream is ending either way
				return err
			}
		}
		// Emit every record whose order no future append can contradict: a
		// queued record with sequence s goes out once each other shard
		// either shows a queued record (necessarily later — per-shard
		// sequences ascend) or was read to its end and is sealed at or
		// past s. A shard whose budgeted read stopped short may hold
		// unread records below its watermark, so it gates until drained.
		emitted := false
		for {
			pick := -1
			for i := range queues {
				if len(queues[i]) > 0 && (pick < 0 || queues[i][0].seq < queues[pick][0].seq) {
					pick = i
				}
			}
			if pick < 0 {
				break
			}
			seq := queues[pick][0].seq
			ready := true
			for j := range queues {
				if j != pick && len(queues[j]) == 0 && (!drained[j] || sealed[j] < seq) {
					ready = false
					break
				}
			}
			if !ready {
				break
			}
			rec := queues[pick][0]
			queues[pick] = queues[pick][1:]
			if seq <= shipped {
				continue // resume skip: the follower journaled this already
			}
			conn.buf = AppendJournalRec(conn.buf, pick, rec.payload)
			shipped = seq
			emitted = true
			mJournalShipped.Inc()
			if len(conn.buf) >= 1<<16 {
				if err := conn.push(); err != nil {
					return err
				}
			}
		}
		if emitted {
			s.cfg.Registry.NoteJournal(followerID, shipped)
			if err := conn.push(); err != nil {
				return err
			}
			lastBeat = obs.Now()
			continue // drain hot without sleeping
		}
		if !allTrue(drained) {
			continue // a budgeted read left a backlog: keep reading
		}
		if obs.Since(lastBeat) >= s.cfg.Heartbeat {
			conn.buf = s.heartbeat(conn.buf)
			if err := conn.push(); err != nil {
				return err
			}
			lastBeat = obs.Now()
		}
		select {
		case <-stop:
			conn.buf = AppendEOF(conn.buf, "primary shutting down")
			conn.push() //nolint:errcheck // stream is ending either way
			return nil
		case <-time.After(s.cfg.Poll):
		}
	}
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}
