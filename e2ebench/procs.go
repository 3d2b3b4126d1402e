package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned program process.
type daemon struct {
	name    string
	args    []string
	addr    string // host:port it listens on; "" for batch tools
	logPath string
	cmd     *exec.Cmd
	exited  chan struct{}
	err     error // Wait's result, valid once exited is closed
}

// running is every spawned process that has not exited, so an
// interrupted run can stop them all.
var running = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// stopAll stops every running process and waits for each to exit.
func stopAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.m))
	for d := range running.m {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// childEnv is the environment every spawned program runs with: the
// benchmark's own, with GOMAXPROCS stated so the record can report it.
func childEnv(gomaxprocs int) []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
}

// spawn starts bin with args, logging to logDir/name.log.
func spawn(bin, name, logDir string, gomaxprocs int, args ...string) (*daemon, error) {
	d := &daemon{name: name, args: args, logPath: filepath.Join(logDir, name+".log"), exited: make(chan struct{})}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.Env = childEnv(gomaxprocs)
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running.Lock()
	running.m[d] = true
	running.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.m, d)
		running.Unlock()
		close(d.exited)
	}()
	return d, nil
}

// stop sends SIGTERM, waits up to 10s, then kills; it returns once the
// process has exited.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exiting is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// logTail is the end of the daemon's log, for error messages.
func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath) // best effort: only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// runTool runs a batch program to completion and returns its wall time.
func runTool(bin, name, logDir string, gomaxprocs int, args ...string) (time.Duration, error) {
	t0 := time.Now()
	d, err := spawn(bin, name, logDir, gomaxprocs, args...)
	if err != nil {
		return 0, err
	}
	<-d.exited
	el := time.Since(t0)
	if d.err != nil {
		return el, fmt.Errorf("%s %v: %v\n%s", name, args, d.err, d.logTail())
	}
	return el, nil
}

// freeAddr reserves a loopback port by listening and closing.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitReady polls url until ready accepts a 200 body, the daemon exits,
// or the deadline passes.
func waitReady(ctx context.Context, d *daemon, url string, ready func([]byte) bool) error {
	c := &http.Client{Timeout: time.Second}
	for {
		if resp, err := c.Get(url); err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && ready(body) {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before ready: %v\n%s", d.name, d.err, d.logTail())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s: %w\n%s", d.name, url, ctx.Err(), d.logTail())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// client is one closed-loop connection: a keep-alive client holding at
// most one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// fetch performs one request and reads the whole body. A non-empty
// span is sent in spanHeader.
func fetch(c *http.Client, method, url string, body []byte, span string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}
