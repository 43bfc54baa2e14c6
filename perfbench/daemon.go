package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is an oracled child process and the HTTP client that drives it
// over loopback with at most two connections.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	drained chan struct{} // closed once the child's stdout is fully read
}

// bootGraph is the default graph oracled must be started with; the
// workload's own graphs are created through POST /graphs.
const bootGraph = "# 2 1\n0 1\n"

func startDaemon(bin string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-graph", "-", "-graphname", "boot"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(bootGraph)
	cmd.Stderr = os.Stderr
	// Should the benchmark itself be killed, the kernel stops the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start oracled: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		const marker = "oracled: listening on "
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, marker) {
				addr <- strings.TrimPrefix(line, marker)
			}
		}
		_, _ = io.Copy(io.Discard, out) // a line past the scanner's limit
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, errors.New("oracled exited before listening")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("oracled did not start listening within 60s")
	}
	d.client = &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
	for deadline := time.Now().Add(60 * time.Second); ; {
		if st, _, err := d.do("GET", "/healthz", nil); err == nil && st == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("oracled not healthy within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// do sends one request and returns the status and the whole body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stop terminates the child and waits for it and its output reader.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	exited := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // a signalled exit status is expected
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
	<-d.drained
}

// cpuTicks is the child's utime+stime in clock ticks (/proc/<pid>/stat).
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return ut + st, nil
}

// clockTick is USER_HZ, 100 on every Linux architecture Go supports.
const clockTick = 100

// rssMB is the child's VmRSS in MiB.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}
