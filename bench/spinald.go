package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spinal/daemon"
)

// spinaldProc is one spinald child process, observed from outside.
type spinaldProc struct {
	cmd       *exec.Cmd
	addr      *net.UDPAddr
	telemetry string // host:port of /metrics, "" when off

	gcs      atomic.Int64 // gctrace lines seen on stderr
	scanDone chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

// spinaldArgs are the flags every benchmark daemon runs with: two shards
// on two cores, 10 dB, loopback on an ephemeral port.
func spinaldArgs(beam int, seed int64, telemetry bool) []string {
	args := []string{
		"-listen", "127.0.0.1:0", "-shards", "2", "-snr", "10",
		"-b", strconv.Itoa(beam), "-seed", strconv.FormatInt(seed, 10),
		"-drain-timeout", "10s",
	}
	if telemetry {
		args = append(args, "-telemetry", "127.0.0.1:0")
	}
	return args
}

// startSpinald execs bin and waits until it reports its socket (and its
// telemetry endpoint, when asked for one). With gctrace the runtime
// reports every collection on stderr, where they are counted.
func startSpinald(bin string, args []string, gctrace bool) (*spinaldProc, error) {
	cmd := exec.Command(bin, args...)
	// If this process dies without stopping the daemon, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spinald: %w", err)
	}
	p := &spinaldProc{cmd: cmd, scanDone: make(chan struct{})}
	wantTelemetry := false
	for _, a := range args {
		wantTelemetry = wantTelemetry || a == "-telemetry"
	}
	ready := make(chan struct{})
	go p.scan(stderr, wantTelemetry, ready)
	select {
	case <-ready:
		return p, nil
	case <-p.scanDone:
		p.stop()
		return nil, fmt.Errorf("spinald exited before serving: %s", p.stderrTail())
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("spinald did not report its address within 20s: %s", p.stderrTail())
	}
}

// scan reads spinald's stderr to EOF: it picks up the bound addresses
// from the start-up log, counts gctrace lines and keeps a short tail.
func (p *spinaldProc) scan(r io.Reader, wantTelemetry bool, ready chan<- struct{}) {
	defer close(p.scanDone)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "gc ") {
			p.gcs.Add(1)
			continue
		}
		p.mu.Lock()
		if len(p.tail) == 8 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		p.mu.Unlock()
		if signalled {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "spinald: serving on "); ok {
			host, _, _ := strings.Cut(rest, " ")
			if a, err := net.ResolveUDPAddr("udp", host); err == nil {
				p.addr = a
			}
		}
		if rest, ok := strings.CutPrefix(line, "spinald: telemetry on http://"); ok {
			p.telemetry = strings.TrimSuffix(rest, "/metrics")
		}
		if p.addr != nil && (!wantTelemetry || p.telemetry != "") {
			signalled = true
			close(ready)
		}
	}
}

func (p *spinaldProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop drains spinald with SIGTERM and waits for it to exit, killing it
// if the drain does not finish in time. It reports whether the daemon
// said it drained cleanly.
func (p *spinaldProc) stop() (clean bool) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.scanDone:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.scanDone
	}
	_ = p.cmd.Wait()
	return strings.Contains(p.stderrTail(), "drained cleanly")
}

func (p *spinaldProc) pid() int { return p.cmd.Process.Pid }

// cpuTime is the daemon's total CPU time so far: the sum over its threads
// of the nanosecond schedstat counter, falling back to the 10 ms
// utime+stime ticks of /proc/<pid>/stat where schedstat is missing.
func (p *spinaldProc) cpuTime() time.Duration {
	return processCPU(p.pid())
}

func processCPU(pid int) time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err == nil {
		var ns int64
		okAll := true
		for _, t := range tasks {
			b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
			if err != nil {
				okAll = false
				break
			}
			f := strings.Fields(string(b))
			if len(f) == 0 {
				okAll = false
				break
			}
			v, _ := strconv.ParseInt(f[0], 10, 64)
			ns += v
		}
		if okAll {
			return time.Duration(ns)
		}
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields overall.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// peakRSS reads a process's VmHWM, its resident-set high-water mark, in
// bytes.
func peakRSS(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// metrics fetches spinald's /metrics snapshot.
func (p *spinaldProc) metrics(ctx context.Context) (daemon.Metrics, error) {
	var m daemon.Metrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.telemetry+"/metrics", nil)
	if err != nil {
		return m, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// pollQueues samples every shard's ingress queue length every 250 ms
// until ctx ends and returns the largest length seen.
func (p *spinaldProc) pollQueues(ctx context.Context) int {
	maxLen := 0
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return maxLen
		case <-t.C:
			m, err := p.metrics(ctx)
			if err != nil {
				continue
			}
			for _, sh := range m.Shards {
				maxLen = max(maxLen, sh.QueueLen)
			}
		}
	}
}
