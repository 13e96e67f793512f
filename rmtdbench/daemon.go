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
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one child server process: rmtd, started with its defaults
// apart from -quiet and a loopback ephemeral -addr, or the reference
// server.
type daemon struct {
	name string
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"
	log  *addrWriter
	done chan struct{} // closed once the process has been waited for
}

// addrWriter receives the child's stderr, reports the address of its
// "listening on" line and keeps the start of the rest for error messages.
type addrWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string // buffered: receives the address once
	found bool
}

var listeningRE = regexp.MustCompile(`listening on (\S+)\n`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 64<<10 {
		w.buf.Write(p)
	}
	if !w.found {
		if m := listeningRE.FindSubmatch(w.buf.Bytes()); m != nil {
			w.found = true
			w.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}

const daemonStartTimeout = 20 * time.Second

// startDaemon launches a server that prints "listening on ADDR" to stderr
// and returns once it has answered /healthz.
func startDaemon(name, bin string, args []string, client *http.Client) (*daemon, error) {
	log := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = log
	// If rmtdbench dies without stopping the child (a signal, a closed
	// stdout pipe), the kernel kills the child too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.NewTimer(daemonStartTimeout)
	defer deadline.Stop()
	select {
	case addr := <-log.addr:
		d.base = "http://" + addr
	case <-d.done:
		return nil, fmt.Errorf("%s exited during start-up: %s", name, log)
	case <-deadline.C:
		d.stop()
		return nil, fmt.Errorf("%s printed no address within %v", name, daemonStartTimeout)
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited before it was healthy: %s", name, log)
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("%s not healthy within %v", name, daemonStartTimeout)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, and SIGKILL if the child has not drained within ten
// seconds, and returns once the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return
	case <-time.After(10 * time.Second):
	}
	d.cmd.Process.Kill()
	<-d.done
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuTime returns the child's user+sys CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	// After the name: state(0) ... utime is field 14 of stat, index 11 here.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hostCPU returns the machine-wide steal and total CPU ticks from
// /proc/stat: time taken from this machine's CPUs by the hypervisor slows
// every wall-clock metric, so the report prints its share.
func hostCPU() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// memMB returns a memory field of the child's /proc status ("VmRSS",
// "VmHWM") in MB.
func (d *daemon) memMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssSampler samples the child's resident set size every rssEvery until
// stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []rssPoint
	err     error
}

type rssPoint struct {
	at time.Duration // from the start of the phase
	mb float64
}

const rssEvery = 20 * time.Millisecond

func (d *daemon) sampleRSS(start time.Time) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			mb, err := d.memMB("VmRSS")
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, rssPoint{time.Since(start), mb})
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples once it has exited.
func (s *rssSampler) finish() ([]rssPoint, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// scrape reads rmtd's counters from /metrics.
func (d *daemon) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
