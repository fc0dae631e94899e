package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one odeprotod child process. Readiness and peer liveness are
// read from its structured stderr log ("serving", "peer down", "peer up"),
// so the benchmark waits on events instead of polling.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // bound address, from the "serving" line
	started time.Time

	serving chan struct{}
	exited  chan struct{}
	waitErr error

	mu       sync.Mutex
	down     map[string]bool // peers this node currently believes down
	changed  chan struct{}   // closed and replaced on every liveness change
	tailLogs []string        // last few lines, for error reports
}

// startDaemon execs bin with args and returns once the process is running
// (not yet ready; see ready).
func startDaemon(bin string, args []string) (*daemon, error) {
	d := &daemon{
		cmd:     exec.Command(bin, args...),
		serving: make(chan struct{}),
		exited:  make(chan struct{}),
		down:    make(map[string]bool),
		changed: make(chan struct{}),
	}
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go d.readLog(stderr)
	return d, nil
}

// readLog consumes the daemon's stderr until it closes, then reaps the
// process. Only the few lifecycle lines are decoded; job lines are skipped
// after a substring test.
func (d *daemon) readLog(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	servingSeen := false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case !servingSeen && bytes.Contains(line, []byte(`"msg":"serving"`)):
			var rec struct{ Addr string }
			if json.Unmarshal(line, &rec) == nil {
				d.addr = rec.Addr
				servingSeen = true
				close(d.serving)
			}
		case bytes.Contains(line, []byte(`"msg":"peer down"`)), bytes.Contains(line, []byte(`"msg":"peer up"`)):
			var rec struct{ Msg, Peer string }
			if json.Unmarshal(line, &rec) == nil {
				d.mu.Lock()
				d.down[rec.Peer] = rec.Msg == "peer down"
				close(d.changed)
				d.changed = make(chan struct{})
				d.mu.Unlock()
			}
		case bytes.Contains(line, []byte(`"level":"ERROR"`)):
			d.mu.Lock()
			d.tailLogs = append(d.tailLogs, string(line))
			if len(d.tailLogs) > 5 {
				d.tailLogs = d.tailLogs[1:]
			}
			d.mu.Unlock()
		}
	}
	d.waitErr = d.cmd.Wait()
	close(d.exited)
}

// ready waits for the "serving" line, then for GET /v1/healthz to answer
// 200, and returns the time from exec to that answer.
func (d *daemon) ready(client *http.Client, timeout time.Duration) (time.Duration, error) {
	select {
	case <-d.serving:
	case <-d.exited:
		return 0, fmt.Errorf("odeprotod exited before serving: %v %v", d.waitErr, d.errorLines())
	case <-time.After(timeout):
		return 0, fmt.Errorf("odeprotod not serving after %v", timeout)
	}
	resp, err := client.Get("http://" + d.addr + "/v1/healthz")
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz %s after serving", resp.Status)
	}
	return time.Since(d.started), nil
}

// peersUp blocks until this node believes every peer alive.
func (d *daemon) peersUp(timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		d.mu.Lock()
		anyDown := false
		for _, dn := range d.down {
			anyDown = anyDown || dn
		}
		ch := d.changed
		d.mu.Unlock()
		if !anyDown {
			return nil
		}
		select {
		case <-ch:
		case <-d.exited:
			return fmt.Errorf("odeprotod %s exited", d.addr)
		case <-deadline:
			return fmt.Errorf("odeprotod %s still sees peers down after %v", d.addr, timeout)
		}
	}
}

func (d *daemon) errorLines() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.tailLogs...)
}

// stop sends SIGTERM (graceful shutdown) and waits for the process to
// exit, killing it if it does not within the grace period.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return nil
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("odeprotod ignored SIGTERM; killed")
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after ") ".
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procMemMiB returns a memory field of /proc/<pid>/status, such as VmHWM
// (peak resident set) or VmRSS (current resident set), in MiB.
func procMemMiB(pid int, field string) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// freePorts reserves n loopback ports by binding and releasing them; the
// cluster needs its peer list before any node starts.
func freePorts(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, l := range lns {
			l.Close()
		}
	}()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, l)
		out[i] = l.Addr().String()
	}
	return out, nil
}
