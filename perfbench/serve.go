package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"grca/internal/obs"
	"grca/internal/wire"
)

// serveProc is one `grca serve` process the benchmark started.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  string
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// procs tracks every started process so stopAll can end them on any exit
// path.
var procs struct {
	sync.Mutex
	all []*serveProc
}

// startServe execs the server on an ephemeral port and returns once it
// listens. The bound address is read from its "listening on" log line;
// stderr is kept in logPath.
func startServe(bin, logPath string, args ...string) (*serveProc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serveProc{cmd: cmd, log: logPath, done: make(chan struct{})}
	procs.Lock()
	procs.all = append(procs.all, s)
	procs.Unlock()
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(f, line)
			if rest, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case listening <- addr:
					default:
					}
				}
			}
		}
		s.err = cmd.Wait()
		f.Close()
		close(s.done)
	}()
	select {
	case addr := <-listening:
		s.base = "http://" + addr
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("server exited before listening (%v): %s", s.err, tail(logPath))
	case <-time.After(3 * time.Minute):
		s.kill()
		return nil, fmt.Errorf("server did not listen within 3m: %s", tail(logPath))
	}
}

// stop sends SIGTERM (the graceful drain) and waits for the exit.
func (s *serveProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		if s.err != nil {
			return fmt.Errorf("server exit: %v: %s", s.err, tail(s.log))
		}
		return nil
	case <-time.After(90 * time.Second):
		s.kill()
		return fmt.Errorf("server did not drain within 90s")
	}
}

func (s *serveProc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

// stopAll kills every process still running and waits for each.
func stopAll() {
	procs.Lock()
	defer procs.Unlock()
	for _, s := range procs.all {
		select {
		case <-s.done:
		default:
			s.kill()
		}
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (s *serveProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func tail(path string) string {
	data, _ := os.ReadFile(path) // best effort for an error message
	if len(data) > 800 {
		data = data[len(data)-800:]
	}
	return strings.TrimSpace(string(data))
}

// newClient returns an HTTP client keeping at most conns keep-alive
// connections per server, so the load is a closed loop over that many
// callers.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns its status and body.
func do(c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// okBody is do that requires a 200.
func okBody(c *http.Client, method, url, contentType string, body []byte) ([]byte, error) {
	code, data, err := do(c, method, url, contentType, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %.300s", method, url, code, data)
	}
	return data, nil
}

// setUp uploads the bundle's feeds and finalizes: the set-up a collector
// deployment does once.
func setUp(c *http.Client, s *serveProc, in *inputs) error {
	for _, body := range in.feeds {
		if _, err := okBody(c, http.MethodPost, s.base+"/v1/ingest", wire.ContentType, body); err != nil {
			return err
		}
	}
	_, err := okBody(c, http.MethodPost, s.base+"/v1/finalize", "application/json", []byte("{}"))
	return err
}

// waitServing polls /healthz until it reports the serving phase.
func waitServing(c *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		code, data, err := do(c, http.MethodGet, base+"/healthz", "", nil)
		if err == nil && code == http.StatusOK {
			var h struct{ Phase string }
			if json.Unmarshal(data, &h) == nil && h.Phase == "serving" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving after %v", base, limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stats is the subset of /v1/stats the benchmark reads.
type stats struct {
	Events  int          `json:"events"`
	Metrics obs.Snapshot `json:"metrics"`
}

func getStats(c *http.Client, base string) (stats, error) {
	var st stats
	data, err := okBody(c, http.MethodGet, base+"/v1/stats", "", nil)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(data, &st)
	return st, err
}

// liveEvents is the store's live-event count from the light /v1/events
// summary.
func liveEvents(c *http.Client, base string) (int, error) {
	data, err := okBody(c, http.MethodGet, base+"/v1/events", "", nil)
	if err != nil {
		return 0, err
	}
	var r struct{ Events int }
	err = json.Unmarshal(data, &r)
	return r.Events, err
}

// dirMB is the total size of the files under dir in MiB.
func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}
