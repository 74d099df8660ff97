// Command bench is the certifier benchmark: it builds cmd/adaserved,
// drives one workload against a live server over HTTP with a closed
// loop of clients, checks every response, and prints every metric by
// name and unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same measured run is followed by a traced in-process replay
// (bench/tracer) and the metrics are the per-layer ones. Run it from
// the repository root through bench/run.sh, or from bench/ with
//
//	go run . -root .. -workload cold_gripenberg -seed 1 -seconds 15
//
// See bench/README.md for the workloads, the metrics and the trace
// file format.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"adaptivertc/bench/workload"
)

// requestedClients is the closed loop's client count (one connection
// each); it is clamped to the host's processor count.
const requestedClients = 2

// gapPrefix is how many requests, by index, gap_mean averages over: a
// fixed prefix makes it a pure function of the seed.
const gapPrefix = 64

// setups is how many times a run sets the server up; setup_s is their
// median and the last server is the one measured.
const setups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	root    string
	spec    workload.Spec
	seed    int64
	seconds float64
	trace   bool
	setups  int
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root: holds cmd/adaserved and bench/")
	name := fs.String("workload", "", "workload: cold_gripenberg, cold_bruteforce, async_jobs or warm_replay")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 15, "length of the measured run")
	trace := fs.Int("trace", 0, "1 = follow the measured run with the traced replay and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := workload.Lookup(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -workload NAME, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := config{root: absRoot, spec: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := bench(ctx, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// host describes the machine and settings a result was measured with.
type host struct {
	Nproc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Go          string   `json:"go"`
	CPU         string   `json:"cpu"`
	Clients     int      `json:"clients"`
	ClientsWant int      `json:"clients_requested"`
	ServerFlags []string `json:"server_flags"`
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
}

func hostInfo(cfg config, clients int) host {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{
		Nproc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		CPU:         cpu,
		Clients:     clients,
		ClientsWant: requestedClients,
		ServerFlags: append(append([]string(nil), serverFlags...), "-cache-dir", "<fresh dir>"),
		Workload:    cfg.spec.Name,
		Seed:        cfg.seed,
		Seconds:     cfg.seconds,
	}
}

// goBuild builds pkg (relative to dir) into out with the go command on
// PATH, inheriting the environment (bench/run.sh points its caches into
// the checkout).
func goBuild(ctx context.Context, dir, out, pkg string, stderr io.Writer) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %w", pkg, err)
	}
	return nil
}

func bench(ctx context.Context, cfg config, stdout, stderr io.Writer) (*result, error) {
	out := filepath.Join(cfg.root, ".bench_build")
	r := &runner{
		cfg:       cfg,
		serverBin: filepath.Join(out, "bin", "adaserved"),
		runDir:    filepath.Join(out, "runs", fmt.Sprintf("%s-seed%d-%d", cfg.spec.Name, cfg.seed, os.Getpid())),
		clients:   min(requestedClients, runtime.NumCPU()),
		logf:      func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) },
	}
	if err := goBuild(ctx, cfg.root, r.serverBin, "./cmd/adaserved", stderr); err != nil {
		return nil, err
	}
	var err error
	if r.in, err = workload.New(cfg.spec, filepath.Join(cfg.root, "bench", "testdata"), cfg.seed); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.runDir)

	hostJSON, err := json.Marshal(hostInfo(cfg, r.clients))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	if r.clients < requestedClients {
		fmt.Fprintf(stdout, "clients clamped from %d to nproc = %d\n", requestedClients, r.clients)
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = r.clients, r.clients
	r.hc = &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	defer tr.CloseIdleConnections()

	if cfg.spec.Warm {
		if err := r.computeWorkingSet(ctx); err != nil {
			return nil, err
		}
	}
	r.probe = startSpeedProbe()
	defer r.probe.stop()
	fmt.Fprintln(stdout, r.probe)
	srv, setupRaw, setupScaled, err := r.setUp(ctx)
	if err != nil {
		return nil, err
	}
	idleBefore := r.idleSpeed(ctx)
	m, err := r.measure(ctx, srv)
	idleAfter := r.idleSpeed(ctx)
	srv.stop()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}

	// Timings are reported at the reference host speed: each latency
	// at the speed around its request, run totals at the run's speed.
	lr := m.load
	hostSpeed := r.probe.speed(m.start, m.end)
	idleSpeed := (idleBefore + idleAfter) / 2
	fmt.Fprintf(stdout, "info host speed idle before %.4g, under load %.4g, idle after %.4g: under load / idle %.4g\n",
		idleBefore, hostSpeed, idleAfter, hostSpeed/idleSpeed)
	if d := math.Abs(hostSpeed/idleSpeed - 1); d > speedAgreement {
		warn := fmt.Sprintf("warn host speed under load differs from idle by %.3g, more than %g: the host changed speed sharply around the run, or the server under test moves the probe, so the corrected timings may be off", d, speedAgreement)
		fmt.Fprintln(stdout, warn)
		r.logf("%s", warn)
	}
	ops := float64(len(lr.samples))
	var lat, scaled []float64
	var latSum, gapSum float64
	var gapN int
	for _, s := range lr.samples {
		ms := float64(s.lat) / float64(time.Millisecond)
		lat = append(lat, ms)
		scaled = append(scaled, ms*r.probe.speed(s.start, s.start.Add(s.lat)))
		latSum += ms
		if s.i < gapPrefix {
			gapSum += s.gap
			gapN++
		}
	}
	sort.Float64s(lat)
	sort.Float64s(scaled)
	throughput := ops / m.end.Sub(m.start).Seconds()
	e2e := map[string]float64{
		"throughput_rps":       throughput / hostSpeed,
		"latency_p50_ms":       percentile(scaled, 0.50),
		"latency_p90_ms":       percentile(scaled, 0.90),
		"gap_mean":             gapSum / float64(gapN),
		"server_cpu_ms_per_op": m.serverCPUMs / ops * hostSpeed,
		"server_rss_mb":        median(m.rssMB),
		"setup_s":              median(setupScaled),
	}
	r.probe.stop() // the traced replay below runs without it
	fmt.Fprintf(stdout, "run: %d clients, %.2f s, attempted %d, failed %d, error_rate %g, samples %d, gap_mean over the first %d requests\n",
		r.clients, m.end.Sub(m.start).Seconds(), lr.attempted, lr.failed, float64(lr.failed)/float64(lr.attempted), len(lr.samples), gapN)
	fmt.Fprintf(stdout, "info host speed %.4g of reference; as measured: throughput_rps %.6g, latency_p50_ms %.6g, latency_p90_ms %.6g, server_cpu_ms_per_op %.6g, setup_s %.6g (set-ups %v), server VmHWM %.4g MB\n",
		hostSpeed, throughput, percentile(lat, 0.50), percentile(lat, 0.90), m.serverCPUMs/ops, median(setupRaw), setupRaw, m.peakRSSMB)
	if len(lat) >= 1000 {
		fmt.Fprintf(stdout, "info latency_p99_ms %.6g ms as measured (%d samples beyond it)\n", percentile(lat, 0.99), len(lat)-int(0.99*float64(len(lat))))
	}

	res := &result{Correct: lr.failed == 0, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, e2e
	if cfg.trace {
		values = serverLayers(m.before, m.after, ops, latSum/ops)
		values["bench.client_cpu_ms_per_op"] = m.clientCPUMs / ops
		values["bench.host_speed"] = hostSpeed
		values["bench.host_speed_load_ratio"] = hostSpeed / idleSpeed
		served := map[uint64]string{}
		for _, s := range lr.samples {
			if s.body != nil {
				served[s.i] = string(s.body)
			}
		}
		tr, err := runTracer(ctx, cfg, r.runDir, hostJSON, served, r.expected, stderr)
		if err != nil {
			return nil, err
		}
		for k, v := range tr.Metrics {
			values[k] = v
		}
		values["trace.overhead_ratio"] = ratio(tr.RequestMs, values["server.handler_ms_mean"])
		fmt.Fprintf(stdout, "trace: %d spans in %s; traced bytes compared with served bytes for %d requests, %d differ; %d phase-replay calls failed and were skipped\n",
			tr.Spans, tr.File, tr.Compared, tr.Mismatches, tr.PhaseErrors)
		fmt.Fprintf(stdout, "info jsr.bruteforce.tightened_ratio %.6g with base n = %g sets (the share on which brute force beat Gripenberg's Lower or Upper)\n",
			values["jsr.bruteforce.tightened_ratio"], values["jsr.bruteforce.tightened_base"])
		res.Failed += int64(tr.Mismatches)
		res.Correct = res.Correct && tr.Mismatches == 0
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %s %.6g %s\n", d.name, v, d.unit)
	}
	return res, nil
}

// clientCPUMillis returns this process's user+system CPU time.
func clientCPUMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// tracerOutput is the last line the tracer prints.
type tracerOutput struct {
	Metrics     map[string]float64 `json:"metrics"`
	RequestMs   float64            `json:"request_ms_mean"`
	Compared    int                `json:"compared"`
	Mismatches  int                `json:"mismatches"`
	PhaseErrors int                `json:"phase_errors"`
	Spans       int                `json:"spans"`
	File        string             `json:"file"`
}

// runTracer builds bench/tracer and runs the traced replay of the same
// workload and seed, handing it the bytes the server served so it can
// compare them with its own.
func runTracer(ctx context.Context, cfg config, runDir string, hostJSON []byte, served map[uint64]string, working [][]byte, stderr io.Writer) (*tracerOutput, error) {
	bin := filepath.Join(cfg.root, ".bench_build", "bin", "benchtracer")
	if err := goBuild(ctx, filepath.Join(cfg.root, "bench"), bin, "./tracer", stderr); err != nil {
		return nil, err
	}
	ws := make([]string, len(working))
	for i, b := range working {
		ws[i] = string(b)
	}
	servedFile := filepath.Join(runDir, "served.json")
	data, err := json.Marshal(map[string]any{"served": served, "working_set": ws})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(servedFile, data, 0o644); err != nil {
		return nil, err
	}
	spans := filepath.Join(cfg.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.spec.Name, cfg.seed))
	cmd := exec.CommandContext(ctx, bin,
		"-root", cfg.root, "-workload", cfg.spec.Name, "-seed", fmt.Sprint(cfg.seed),
		"-requests", fmt.Sprint(cfg.spec.TraceRequests), "-served", servedFile,
		"-dir", filepath.Join(runDir, "trace"), "-spans", spans, "-host", string(hostJSON))
	cmd.Stderr = stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var out tracerOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, fmt.Errorf("traced replay: parsing its output: %w", err)
	}
	return &out, nil
}
