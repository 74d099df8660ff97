package main

import (
	"bufio"
	"context"
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

// server is one adaserved process started by the benchmark.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:<port>
	done chan struct{} // closed once the process's stdout reaches EOF
}

// serverFlags are the flags every server runs with besides -cache-dir:
// a free loopback port and otherwise the defaults.
var serverFlags = []string{"-addr", "127.0.0.1:0"}

// startServer launches bin on a free loopback port with cacheDir and
// returns once /healthz answers.
func startServer(ctx context.Context, hc *http.Client, bin, cacheDir string) (*server, error) {
	cmd := exec.Command(bin, append(append([]string(nil), serverFlags...), "-cache-dir", cacheDir)...)
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1) // one send: the listen line
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		// Drain to EOF so the server never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, out)
	}()

	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		s.stop()
		return nil, errors.New("adaserved exited before listening")
	case <-timer.C:
		s.stop()
		return nil, errors.New("adaserved did not start listening within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // the status code is all readiness needs
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-timer.C:
			s.stop()
			return nil, errors.New("adaserved /healthz not ready within 30s")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-poll.C:
		}
	}
}

// stop shuts the server down gracefully (SIGTERM), kills it if it has
// not exited after 30 s, and waits for the process to end.
func (s *server) stop() {
	// The process may already have exited; Wait below reaps it either way.
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case <-s.done:
	case <-timer.C:
		_ = s.cmd.Process.Kill() // fails only when the process is already gone
		<-s.done
	}
	// The exit status of a signalled server carries no information.
	_ = s.cmd.Wait()
}

// cpuMillis returns the server's user+system CPU time so far, read from
// /proc/<pid>/stat (clock ticks of 10 ms, the Linux USER_HZ).
func (s *server) cpuMillis() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server stat: %w", err)
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing server stat: %w", err)
	}
	return float64(utime+stime) * 10, nil
}

// statusMB returns a memory field of /proc/<pid>/status (VmRSS, the
// resident set now, or VmHWM, its peak) in MiB.
func (s *server) statusMB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading server status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape reads /metrics into a map from series (name plus labels, as
// exposed) to value.
func (s *server) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return series, nil
}
