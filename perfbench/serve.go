package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"profirt/internal/serve"
)

// serveClients is the closed-loop caller count of the serve workloads:
// one per CPU of the 2-CPU reference machine, each on its own
// keep-alive connection.
const serveClients = 2

// server is one profiserve process started from the checkout's build.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr chan struct{} // closed when the process's stderr hits EOF
}

// startServer runs profiserve with its shipping defaults on an
// ephemeral loopback port (plus -trace-dir when traceDir is set) and
// waits until /healthz answers.
func startServer(ctx context.Context, e *env, traceDir string) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if traceDir != "" {
		args = append(args, "-trace-dir", traceDir)
	}
	cmd := exec.Command(filepath.Join(e.build, "bin", "profiserve"), args...)
	// Should the benchmark itself be killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting profiserve: %w", err)
	}
	s := &server{cmd: cmd, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "profiserve: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case s.base = <-addr:
	case <-s.stderr:
		s.stop()
		return nil, errors.New("profiserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("profiserve did not start listening within 30s")
	}
	c := newClient()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			s.stop()
			return nil, errors.New("profiserve never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, as an operator would, and waits
// for it to exit; a server that does not drain within 30s is killed.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process needs no signal
	select {
	case <-s.stderr:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stderr
	}
	_ = s.cmd.Wait() // exit status is irrelevant once drained
}

func (s *server) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// metrics fetches the /metrics JSON snapshot.
func (s *server) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := newClient().Get(s.base + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// post sends one request and reads the whole reply; the latency runs
// from the send to the last response byte.
func post(c *http.Client, url string, body []byte) (digest [32]byte, lat time.Duration, err error) {
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return digest, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return digest, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return digest, lat, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(out))
	}
	return sha256.Sum256(out), lat, nil
}

// respDigest encodes a response exactly as the server's respond does
// (json.Encoder, trailing newline) and digests it.
func respDigest(v any) [32]byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return sha256.Sum256(buf.Bytes())
}

// serveSession is one server with the closed-loop traffic of a serve
// workload.
type serveSession struct {
	srv  *server
	path string
	// body returns request i's body.
	body func(i int) []byte
	// check validates request i's reply digest after the loop; nil
	// when the digests are verified elsewhere.
	check func(i int, got [32]byte) bool
}

// drive runs the closed loop against the session's server for d and
// returns the loop statistics plus each request's reply digest.
func (ss *serveSession) drive(ctx context.Context, e *env, t *tally, d time.Duration) (loopStats, map[int][32]byte) {
	clients := make([]*http.Client, serveClients)
	for i := range clients {
		clients[i] = newClient()
	}
	digests := make([]map[int][32]byte, serveClients)
	for i := range digests {
		digests[i] = map[int][32]byte{}
	}
	client := make(chan int, serveClients)
	for i := 0; i < serveClients; i++ {
		client <- i
	}
	url := ss.srv.base + ss.path
	ls := closedLoop(ctx, serveClients, d, e.minOps(), 1, t, func(i int) opResult {
		ci := <-client
		defer func() { client <- ci }()
		body := ss.body(i)
		dg, lat, err := post(clients[ci], url, body)
		if err != nil {
			return opResult{lat: lat, reason: err.Error()}
		}
		if ss.check != nil && !ss.check(i, dg) {
			return opResult{lat: lat, reason: fmt.Sprintf("request %d: reply differs from the direct Engine call", i)}
		}
		digests[ci][i] = dg
		return opResult{lat: lat, ok: true}
	})
	all := map[int][32]byte{}
	for _, m := range digests {
		for k, v := range m {
			all[k] = v
		}
	}
	return ls, all
}

// warm sends bodies once, sequentially, and fails on any error.
func (ss *serveSession) warm(bodies [][]byte) error {
	c := newClient()
	for i, b := range bodies {
		if _, _, err := post(c, ss.srv.base+ss.path, b); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

// ensureTraceDir makes an empty directory for trace files.
func ensureTraceDir(e *env, name string) (string, error) {
	dir := filepath.Join(e.tmp, name)
	return dir, os.MkdirAll(dir, 0o755)
}
