package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one iprism-serve process started with its production
// defaults; only the listen address and the address file are set.
type serverProc struct {
	cmd    *exec.Cmd
	pid    int
	base   string
	client *http.Client
	stderr bytes.Buffer
	exited chan struct{}
}

// childAttr makes a child process die with the benchmark, so a benchmark
// that is killed leaves no server or training process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxConns is the client's connection cap: the host's two CPUs.
const maxConns = 2

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// startServer launches the server and returns once it accepts requests.
func startServer() (*serverProc, error) {
	tmp, err := os.MkdirTemp(tmpDir(), "serve-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)
	addrFile := filepath.Join(tmp, "addr")
	s := &serverProc{exited: make(chan struct{})}
	s.cmd = exec.Command(filepath.Join(binDir(), "iprism-serve"), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = childAttr()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start iprism-serve: %w", err)
	}
	s.pid = s.cmd.Process.Pid
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil {
			s.base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("iprism-serve exited during start: %s", s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("iprism-serve did not publish its address within 20s")
		}
	}
	s.client = newClient(maxConns)
	return s, nil
}

// stop asks the server to drain and waits for it to exit.
func (s *serverProc) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return fmt.Errorf("signal iprism-serve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("iprism-serve did not drain within 20s")
	}
	if code := s.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("iprism-serve exited %d: %s", code, s.stderr.String())
	}
	return nil
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status    int
	body      []byte
	requestID string
	sent      time.Time // connection acquired, request about to be written
	done      time.Time // body fully read
	err       error
}

func (r reply) ok() error {
	if r.err != nil {
		return r.err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	return nil
}

// call sends one request and reads the whole body.
func call(client *http.Client, method, url string, body []byte) reply {
	var r reply
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { r.sent = time.Now() }}
	req = req.WithContext(httptrace.WithClientTrace(context.Background(), trace))
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.requestID = resp.Header.Get("X-Request-Id")
	return r
}

// scrapeCounters reads the named counters from the server's /metrics.
func (s *serverProc) scrapeCounters(names ...string) (map[string]float64, error) {
	r := call(s.client, http.MethodGet, s.base+"/metrics", nil)
	if err := r.ok(); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		for _, n := range names {
			if f[0] == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, fmt.Errorf("parse %s: %w", n, err)
				}
				out[n] = v
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
	}
	return out, nil
}

// wideEvent is the part of a server wide event the traced run reads.
type wideEvent struct {
	RequestID string         `json:"request_id"`
	Seconds   float64        `json:"seconds"`
	Attrs     map[string]any `json:"attrs"`
	Spans     []wideSpan     `json:"spans"`
}

type wideSpan struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

// flightPoller collects the server's wide events from /debug/requests on
// its own connection while a traced phase runs.
type flightPoller struct {
	s      *serverProc
	client *http.Client
	stopc  chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	events map[string]wideEvent
	err    error
}

func (s *serverProc) pollFlight() *flightPoller {
	p := &flightPoller{s: s, client: newClient(1), stopc: make(chan struct{}), events: make(map[string]wideEvent)}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *flightPoller) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	limit := 64
	for {
		select {
		case <-p.stopc:
			p.fetch(256)
			return
		case <-tick.C:
		}
		if fresh := p.fetch(limit); fresh == limit {
			limit = 256 // every event was new: the window may have been overrun
		}
	}
}

// fetch reads the newest limit events and returns how many were new.
func (p *flightPoller) fetch(limit int) int {
	r := call(p.client, http.MethodGet, fmt.Sprintf("%s/debug/requests?limit=%d", p.s.base, limit), nil)
	var doc struct {
		Requests []wideEvent `json:"requests"`
	}
	err := r.ok()
	if err == nil {
		err = json.Unmarshal(r.body, &doc)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("poll /debug/requests: %w", err)
		}
		return 0
	}
	fresh := 0
	for _, ev := range doc.Requests {
		if _, seen := p.events[ev.RequestID]; !seen {
			p.events[ev.RequestID] = ev
			fresh++
		}
	}
	return fresh
}

// stop ends polling and returns the events by request ID.
func (p *flightPoller) stop() (map[string]wideEvent, error) {
	close(p.stopc)
	p.wg.Wait()
	p.client.CloseIdleConnections()
	return p.events, p.err
}
