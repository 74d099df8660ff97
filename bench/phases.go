package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"adaptivertc/bench/workload"
)

// runner holds what the phases of one benchmark run share.
type runner struct {
	cfg       config
	in        *workload.Inputs
	hc        *http.Client
	serverBin string
	runDir    string
	clients   int
	probe     *speedProbe
	logf      func(string, ...any)
	// warm_replay: the working set's certificates as first computed, and
	// their gaps.
	expected    [][]byte
	expectedGap []float64
}

// check sends one request and checks the certificate against it; it
// returns the certificate bytes and Upper − Lower.
func (r *runner) check(ctx context.Context, base string, body []byte) ([]byte, float64, error) {
	cert, _, err := certify(ctx, r.hc, base, body)
	if err != nil {
		return nil, 0, err
	}
	c, err := checkCertificate(cert, r.in.K, r.in.N)
	if err != nil {
		return nil, 0, err
	}
	return cert, c.Upper - c.Lower, nil
}

// cacheDir is the server directory of set-up s.
func (r *runner) cacheDir(s int) string {
	if r.cfg.spec.Warm {
		return filepath.Join(r.runDir, "cache") // every set-up reopens the working set
	}
	return filepath.Join(r.runDir, fmt.Sprintf("cache-%d", s))
}

// computeWorkingSet certifies warm_replay's working set on a server of
// its own (untimed) and keeps the bytes for the checks that follow.
func (r *runner) computeWorkingSet(ctx context.Context) error {
	srv, err := startServer(ctx, r.hc, r.serverBin, r.cacheDir(0))
	if err != nil {
		return err
	}
	defer srv.stop()
	for _, body := range r.in.WorkingSet() {
		cert, gap, err := r.check(ctx, srv.base, body)
		if err != nil {
			return fmt.Errorf("computing the working set: %w", err)
		}
		r.expected, r.expectedGap = append(r.expected, cert), append(r.expectedGap, gap)
	}
	return nil
}

// setUp starts the server cfg.setups times and returns the last one,
// running, with each set-up's time as measured and at the reference
// host speed. A set-up is spawn until /healthz answers, then for
// warm_replay one disk read of every working-set key and otherwise two
// requests from outside the measured index range.
func (r *runner) setUp(ctx context.Context) (*server, []float64, []float64, error) {
	var srv *server
	var raw, scaled []float64
	for s := 0; s < r.cfg.setups; s++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, r.hc, r.serverBin, r.cacheDir(s)); err != nil {
			return nil, nil, nil, err
		}
		if err := r.warmUp(ctx, srv); err != nil {
			srv.stop()
			return nil, nil, nil, err
		}
		t1 := time.Now()
		raw = append(raw, t1.Sub(t0).Seconds())
		scaled = append(scaled, t1.Sub(t0).Seconds()*r.probe.speed(t0, t1))
	}
	return srv, raw, scaled, nil
}

func (r *runner) warmUp(ctx context.Context, srv *server) error {
	if !r.cfg.spec.Warm {
		for j := 0; j < 2; j++ {
			if _, _, err := r.check(ctx, srv.base, r.in.WarmupBody(j)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}
	for j, body := range r.in.WorkingSet() {
		cert, xcache, err := certify(ctx, r.hc, srv.base, body)
		if err != nil {
			return fmt.Errorf("disk pass: %w", err)
		}
		if xcache != "hit-disk" || !bytes.Equal(cert, r.expected[j]) {
			return fmt.Errorf("disk pass: key %d served %q from %q, computed %q", j, cert, xcache, r.expected[j])
		}
	}
	return nil
}

// measurement is what the measured run observed.
type measurement struct {
	load          loadResult
	start, end    time.Time
	before, after map[string]float64 // /metrics
	serverCPUMs   float64
	clientCPUMs   float64 // this process, less the speed probe's threads
	rssMB         []float64
	peakRSSMB     float64
}

// rssPeriod is how often the server's resident set is sampled.
const rssPeriod = 250 * time.Millisecond

// measure runs the closed loop against srv for cfg.seconds, checking
// every reply, and collects the server's counters around it.
func (r *runner) measure(ctx context.Context, srv *server) (*measurement, error) {
	do := func(ctx context.Context, i uint64) ([]byte, float64, error) {
		if !r.cfg.spec.Warm {
			return r.check(ctx, srv.base, r.in.Body(i))
		}
		j := r.in.Pick(i)
		cert, _, err := certify(ctx, r.hc, srv.base, r.in.Body(i))
		if err != nil {
			return nil, 0, err
		}
		if !bytes.Equal(cert, r.expected[j]) {
			return nil, 0, fmt.Errorf("key %d served %q, first computed as %q", j, cert, r.expected[j])
		}
		return cert, r.expectedGap[j], nil
	}
	keep := uint64(0)
	if r.cfg.trace {
		keep = uint64(r.cfg.spec.TraceRequests)
	}
	m := &measurement{}
	var err error
	if m.before, err = srv.scrape(r.hc); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}

	rss := make(chan []float64, 1) // the sampler's one result
	quit := make(chan struct{})
	go func() {
		var samples []float64
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if mb, err := srv.statusMB("VmRSS"); err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-quit:
				rss <- samples
				return
			case <-tick.C:
			}
		}
	}()
	client0 := clientCPUMillis()
	m.start = time.Now()
	m.load = drive(ctx, r.clients, time.Duration(r.cfg.seconds*float64(time.Second)), keep, do, r.logf)
	m.end = time.Now()
	m.clientCPUMs = clientCPUMillis() - client0 - r.probe.cpuMs(m.start, m.end)
	close(quit)
	m.rssMB = <-rss

	cpu1, err := srv.cpuMillis()
	if err != nil {
		return nil, err
	}
	m.serverCPUMs = cpu1 - cpu0
	if m.peakRSSMB, err = srv.statusMB("VmHWM"); err != nil {
		return nil, err
	}
	if m.after, err = srv.scrape(r.hc); err != nil {
		return nil, err
	}
	switch {
	case len(m.load.samples) == 0:
		return nil, errors.New("no request completed")
	case len(m.rssMB) == 0:
		return nil, errors.New("no resident-set sample")
	case !r.cfg.spec.Warm && m.load.attempted > int64(r.in.Capacity()):
		return nil, fmt.Errorf("the run sent %d requests but the input universe holds %d distinct ones; regenerate bench/testdata with a larger universe", m.load.attempted, r.in.Capacity())
	}
	return m, nil
}
