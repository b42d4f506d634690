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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running tppd subprocess.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	debug   string // the -pprof listener's base URL
	dataDir string // "" without durability
	logPath string
	exited  chan struct{} // closed once the process has been waited for
	waitErr error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches tppd with extra flags on free loopback ports and
// waits until /v1/healthz answers 200. A failed start (a port raced away,
// a crash at boot) is retried on fresh ports a few times.
func startServer(bin, runDir string, durable bool, extra []string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(bin, runDir, durable, extra, attempt)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(bin, runDir string, durable bool, extra []string, attempt int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	dport, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	s := &server{
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		debug:   "http://127.0.0.1:" + strconv.Itoa(dport),
		logPath: filepath.Join(runDir, "tppd-"+strconv.Itoa(attempt)+".log"),
		exited:  make(chan struct{}),
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-pprof", "127.0.0.1:" + strconv.Itoa(dport)}
	if durable {
		s.dataDir = filepath.Join(runDir, "data")
		if err := os.RemoveAll(s.dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", s.dataDir)
	}
	args = append(args, extra...)
	logf, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	// The server dies with this process even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting tppd: %w", err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /v1/healthz until it answers 200, the process exits or
// the timeout passes.
func (s *server) waitHealthy(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("tppd exited during start-up (%v): %s", s.waitErr, s.logTail())
		default:
		}
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tppd not healthy within %s: %s", timeout, s.logTail())
}

// logTail returns the end of the server's log, which is removed with the
// run directory.
func (s *server) logTail() string {
	raw, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	const keep = 1024
	if len(raw) > keep {
		raw = raw[len(raw)-keep:]
	}
	return strings.TrimSpace(string(raw))
}

// stop kills the server, waits for it to exit and removes its data dir.
// It is safe to call more than once.
func (s *server) stop() {
	if s == nil || s.cmd == nil || s.cmd.Process == nil {
		return
	}
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Kill() // the process may already be gone; Wait below settles it
		<-s.exited
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	raw, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// procMem returns one memory line of /proc/<pid>/status in bytes: key is
// "VmHWM" for the peak resident set or "VmRSS" for the current one.
func procMem(pid int, key string) (int64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no " + key + " line")
}

// promSample is one scrape of the Prometheus text exposition, keyed by the
// full series ("name{labels}").
type promSample map[string]float64

func (s *server) scrape() (promSample, error) {
	body, err := getBody(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the named metric (all label sets).
func (p promSample) sum(name string) float64 {
	var t float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// memStats is the part of /debug/vars the benchmark reads.
type memStats struct {
	TotalAlloc uint64
	NumGC      uint32
}

func (s *server) memstats() (memStats, error) {
	body, err := getBody(s.debug + "/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return memStats{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// stats reads GET /v1/stats fields the benchmark reports.
type serverStats struct {
	MaxWorkers int `json:"max_workers"`
}

func (s *server) stats() (serverStats, error) {
	body, err := getBody(s.base + "/v1/stats")
	if err != nil {
		return serverStats{}, err
	}
	var st serverStats
	err = json.Unmarshal(body, &st)
	return st, err
}

func getBody(url string) ([]byte, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}
