// Command tracer is the certifier benchmark's traced replay. It replays
// a prefix of one workload's requests in process, calling the public
// functions adaserved's handler calls, in the handler's order, and
// records a span around each call:
//
//	api.DecodeRequest → Normalize+Validate → Resolve → Key →
//	certcache.(*Cache).GetOrCompute → [Resolve → jsr.EstimateCtx →
//	api.ResponseFor+EncodeCanonical]
//
// asserting that the certificate bytes equal the bytes the measured run
// served for the same request. A phase replay of the same sets then
// times jsr.Precondition, jsr.BruteForceBoundsCtx, jsr.GripenbergCtx
// (one span per search level) and jsr.WitnessRate, and the mat kernels
// on the search's products. The phase replay is informational: its
// results are never compared with served bytes.
//
// The spans are written to one JSON file at exit; the last line of
// standard output is a JSON object of per-layer metrics. bench runs the
// tracer with -trace 1; `go run ./tracer -gen testdata` (from bench/)
// regenerates the committed base sets.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"adaptivertc/bench/workload"
	"adaptivertc/internal/api"
	"adaptivertc/internal/certcache"
	"adaptivertc/internal/checkpoint"
	"adaptivertc/internal/jsr"
	"adaptivertc/internal/mat"
	"adaptivertc/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	root := flag.String("root", ".", "repository root")
	name := flag.String("workload", "", "workload to replay")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	requests := flag.Int("requests", 0, "requests to replay (0 = the workload's default prefix)")
	servedPath := flag.String("served", "", "JSON file of the bytes the measured run served")
	dir := flag.String("dir", "", "scratch directory for the replay's certificate and job stores")
	spansPath := flag.String("spans", "", "write the spans to this JSON file")
	hostJSON := flag.String("host", "{}", "host record (JSON) to store with the spans")
	gen := flag.String("gen", "", "write the base Ω-sets to this directory and exit")
	flag.Parse()

	if *gen != "" {
		if err := genTestdata(*gen); err != nil {
			fmt.Fprintln(os.Stderr, "tracer:", err)
			return 1
		}
		return 0
	}
	out, err := replay(*root, *name, *seed, *requests, *servedPath, *dir, *spansPath, json.RawMessage(*hostJSON))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// universes sizes the stream-index universe of each base set (by ns):
// about ten times the distinct requests a 20-second run sends on the
// reference host. bench refuses a run that would need more.
var universes = map[int]int{5: 4096, 2: 65536}

// genTestdata writes the base sets the workloads perturb: the lifted
// PMSM design at Rmax = 1.6·T for ns = 5 (4 modes) and ns = 2 (3
// modes), each with the stream indices of its universe on which the
// engine does not certify.
func genTestdata(dir string) error {
	for _, ns := range []int{5, 2} {
		design, err := api.BuildScenario("pmsm", 1.6, ns)
		if err != nil {
			return err
		}
		bf := workload.BaseFile{Scenario: "pmsm", Ns: ns, RmaxFactor: 1.6, Universe: universes[ns]}
		for _, m := range design.OmegaSet() {
			rows := make([][]float64, m.Rows())
			for i := range rows {
				rows[i] = m.Row(i)
			}
			bf.Matrices = append(bf.Matrices, rows)
		}
		bf.Excluded = scanUniverse(bf.Matrices, bf.Universe)
		fmt.Fprintf(os.Stderr, "tracer: ns = %d: %d of %d stream indices excluded\n", ns, len(bf.Excluded), bf.Universe)
		if err := workload.WriteBase(filepath.Join(dir, fmt.Sprintf("pmsm_ns%d.json", ns)), bf); err != nil {
			return err
		}
	}
	return nil
}

// scanUniverse certifies base under the factor of every stream index in
// [0, n), on GOMAXPROCS goroutines, and returns the indices that fail.
func scanUniverse(base workload.Set, n int) []uint64 {
	var (
		next atomic.Int64
		mu   sync.Mutex
		bad  []uint64
		wg   sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := next.Add(1) - 1; g < int64(n); g = next.Add(1) - 1 {
				if err := certifies(workload.Perturb(base, uint64(g))); err != nil {
					mu.Lock()
					bad = append(bad, uint64(g))
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "tracer: stream index %d: %v\n", g, err)
				}
			}
		}()
	}
	wg.Wait()
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	return bad
}

// certifies runs a literal request for set through the service's
// decode, validate and engine path, and reports why it would not be
// served as a valid certificate.
func certifies(set workload.Set) error {
	body, err := json.Marshal(workload.Request{Version: 1, Matrices: set})
	if err != nil {
		return err
	}
	req, err := api.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		return err
	}
	ms, err := req.Resolve()
	if err != nil {
		return err
	}
	b, err := jsr.EstimateCtx(context.Background(), ms, req.Brute, req.GripenbergOptions(1))
	if err != nil && !errors.Is(err, jsr.ErrBudget) {
		return err
	}
	if math.IsNaN(b.Lower) || math.IsInf(b.Upper, 0) || b.Lower < 0 || b.Lower > b.Upper || len(b.WitnessWord) == 0 {
		return fmt.Errorf("invalid bracket %v", b)
	}
	return nil
}

// output is the tracer's result line.
type output struct {
	Metrics     map[string]float64 `json:"metrics"`
	RequestMs   float64            `json:"request_ms_mean"` // mean traced request, handler-equivalent
	Compared    int                `json:"compared"`
	Mismatches  int                `json:"mismatches"`
	PhaseErrors int                `json:"phase_errors"`
	Spans       int                `json:"spans"`
	File        string             `json:"file"`
}

// jobCkpt mirrors the record internal/server checkpoints a queued job
// as: written at enqueue and at every Gripenberg level boundary. The
// server keeps that format unexported, so this is a copy that nothing
// compares with the original: if the server's record changes, the
// replay keeps timing the old one. Exporting the server's checkpoint
// marshal and calling it here would remove the copy.
type jobCkpt struct {
	ID       string
	Key      certcache.Key
	Req      api.CertifyRequest
	HasState bool
	State    jsr.GripenbergState
}

const (
	jobCkptKind    = "adaserved/job"
	jobCkptVersion = 1
)

// replayer holds the stores one replay runs against.
type replayer struct {
	ctx    context.Context
	t      *tracer
	cache  *certcache.Cache
	jobLog *store.Log // async_jobs only
	async  bool

	compared, mismatches int
	// per phase-replayed set
	levels, nodes, frontierMax, levelMsMax, products stat
	tightened, sets                                  int
	// witness replays and kernel calls of the phase replay that failed
	// and were skipped
	phaseErrors int
}

func replay(root, name string, seed int64, requests int, servedPath, dir, spansPath string, host json.RawMessage) (*output, error) {
	spec, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	if requests > 0 {
		spec.TraceRequests = requests
	}
	in, err := workload.New(spec, filepath.Join(root, "bench", "testdata"), seed)
	if err != nil {
		return nil, err
	}
	var served struct {
		Served     map[uint64]string `json:"served"`
		WorkingSet []string          `json:"working_set"`
	}
	if servedPath != "" {
		data, err := os.ReadFile(servedPath)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &served); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", servedPath, err)
		}
	}
	if dir == "" {
		return nil, errors.New("need -dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	certDir := filepath.Join(dir, "certs")
	r := &replayer{ctx: context.Background(), t: newTracer(), async: spec.Async}
	if r.cache, err = certcache.New(certcache.Options{Dir: certDir}); err != nil {
		return nil, err
	}
	if spec.Async {
		if r.jobLog, err = store.Open(filepath.Join(dir, "jobs"), store.Options{}); err != nil {
			return nil, err
		}
	}

	// compare checks traced bytes against the bytes the server sent.
	compare := func(what string, got []byte, want string, ok bool) {
		if !ok {
			return // the measured run did not reach this request
		}
		r.compared++
		if string(got) != want {
			r.mismatches++
			if r.mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "tracer: %s: traced %q, served %q\n", what, got, want)
			}
		}
	}

	// The phase replay covers the distinct sets of the requests
	// replayed.
	var phases []replayed

	servedWorking := func(j int) (string, bool) {
		if j < len(served.WorkingSet) {
			return served.WorkingSet[j], true
		}
		return "", false
	}
	if spec.Warm {
		// The measured run's set-up, replayed: compute the working set,
		// reopen the store, read each key once from disk.
		for j, body := range in.WorkingSet() {
			rep, err := r.request("prepare", body)
			if err != nil {
				return nil, err
			}
			want, ok := servedWorking(j)
			compare(fmt.Sprintf("working-set key %d", j), rep.cert, want, ok)
			phases = append(phases, rep)
		}
		if err := r.cache.Close(); err != nil {
			return nil, err
		}
		if r.cache, err = certcache.New(certcache.Options{Dir: certDir}); err != nil {
			return nil, err
		}
		for j, body := range in.WorkingSet() {
			rep, err := r.request("disk_pass", body)
			if err != nil {
				return nil, err
			}
			if rep.outcome != certcache.HitDisk {
				return nil, fmt.Errorf("disk pass: key %d served from %s", j, rep.outcome)
			}
			want, ok := servedWorking(j)
			compare(fmt.Sprintf("disk pass key %d", j), rep.cert, want, ok)
		}
	}
	for i := 0; i < spec.TraceRequests; i++ {
		rep, err := r.request("request", in.Body(uint64(i)))
		if err != nil {
			return nil, err
		}
		want, ok := served.Served[uint64(i)]
		compare(fmt.Sprintf("request %d", i), rep.cert, want, ok)
		if !spec.Warm {
			phases = append(phases, rep)
		}
	}
	if err := r.cache.Close(); err != nil {
		return nil, err
	}
	if r.jobLog != nil {
		if err := r.jobLog.Close(); err != nil {
			return nil, err
		}
	}
	if err := r.storeProbe(certDir); err != nil {
		return nil, err
	}

	for _, p := range phases {
		if err := r.phase(p.req, p.set); err != nil {
			return nil, err
		}
	}

	out := r.metrics()
	out.File = spansPath
	if spansPath != "" {
		header := map[string]any{"host": host, "workload": spec.Name, "seed": seed, "requests": spec.TraceRequests}
		if err := r.t.write(spansPath, header); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// replayed is one replayed request: the certificate bytes, the decoded
// request, its resolved set and how the cache served it.
type replayed struct {
	cert    []byte
	req     api.CertifyRequest
	set     []*mat.Dense
	outcome certcache.Outcome
}

// request replays one request the way adaserved's handler (and, for
// async_jobs, its job worker) serves it.
func (r *replayer) request(root string, body []byte) (replayed, error) {
	t := r.t
	t.request()
	rs := t.begin(root)
	defer t.end(rs)
	fail := func(err error) (replayed, error) { return replayed{}, err }

	s := t.begin("api.decode")
	req, err := api.DecodeRequest(bytes.NewReader(body))
	t.end(s)
	if err != nil {
		return fail(err)
	}
	s = t.begin("api.validate")
	req.Normalize()
	err = req.Validate()
	t.end(s)
	if err != nil {
		return fail(err)
	}
	// Resolving a scenario is design synthesis; a literal set is copied.
	resolveSpan := "api.resolve"
	if req.Scenario != nil {
		resolveSpan = "core.design"
	}
	s = t.begin(resolveSpan)
	set, err := req.Resolve()
	t.end(s)
	if err != nil {
		return fail(err)
	}
	s = t.begin("api.key")
	key := req.Key()
	t.end(s)

	opt := req.GripenbergOptions(0)
	if r.async {
		// Handler: a cache lookup, then the job is checkpointed and
		// queued; the worker snapshots every level and removes the
		// checkpoint when the certificate is stored.
		s = t.begin("certcache.get")
		cert, outcome, ok := r.cache.Get(key)
		t.end(s)
		if ok {
			return replayed{cert, req, set, outcome}, nil
		}
		ck := jobCkpt{ID: key.String(), Key: key, Req: req}
		if err := r.putJobCkpt(ck, "enqueue"); err != nil {
			return fail(err)
		}
		opt.Snapshot = func(st jsr.GripenbergState) error {
			ck.HasState, ck.State = true, st
			return r.putJobCkpt(ck, "level")
		}
	}

	s = t.begin("certcache.get_or_compute")
	cert, outcome, err := r.cache.GetOrCompute(r.ctx, key, func(ctx context.Context) ([]byte, error) {
		c := t.begin("compute")
		defer t.end(c)
		s := t.begin(resolveSpan)
		set, err := req.Resolve()
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin("jsr.estimate")
		bounds, err := jsr.EstimateCtx(ctx, set, req.Brute, opt)
		t.end(s)
		exhausted := errors.Is(err, jsr.ErrBudget)
		if err != nil && !exhausted {
			return nil, err
		}
		s = t.begin("api.encode")
		defer t.end(s)
		return api.EncodeCanonical(api.ResponseFor(set, bounds, exhausted))
	})
	t.spans[s].Tag = outcome.String()
	t.end(s)
	if err != nil {
		return fail(err)
	}
	if r.async {
		s = t.begin("store.delete")
		err := r.jobLog.Delete(key.String())
		t.end(s)
		if err != nil {
			return fail(err)
		}
	}
	return replayed{cert, req, set, outcome}, nil
}

// putJobCkpt marshals a job checkpoint and appends it to the job log,
// as the server's job path does.
func (r *replayer) putJobCkpt(ck jobCkpt, tag string) error {
	s := r.t.begin("checkpoint.marshal")
	data, err := checkpoint.Marshal(jobCkptKind, jobCkptVersion, ck)
	r.t.spans[s].Tag, r.t.spans[s].Bytes = tag, len(data)
	r.t.end(s)
	if err != nil {
		return err
	}
	s = r.t.begin("store.put")
	err = r.jobLog.Put(ck.ID, data)
	r.t.end(s)
	return err
}

// storeProbePuts is how many certificate-sized records storeProbe
// appends.
const storeProbePuts = 16

// storeProbe times reopening the certificate log the replay filled
// (what a restarted server pays) and appending certificate-sized
// records to it.
func (r *replayer) storeProbe(dir string) error {
	t := r.t
	t.request()
	rs := t.begin("store_probe")
	defer t.end(rs)
	s := t.begin("store.open")
	l, err := store.Open(dir, store.Options{})
	t.end(s)
	if err != nil {
		return err
	}
	keys := l.Keys()
	if len(keys) == 0 {
		return errors.Join(errors.New("store probe: empty certificate log"), l.Close())
	}
	rec, _, err := l.Get(keys[len(keys)-1])
	if err != nil {
		return errors.Join(err, l.Close())
	}
	for p := 0; p < storeProbePuts; p++ {
		s := t.begin("store.put")
		err := l.Put(fmt.Sprintf("probe-%d", p), rec)
		t.end(s)
		if err != nil {
			return errors.Join(err, l.Close())
		}
	}
	return l.Close()
}

// kernelWords bounds how many frontier products the mat kernels are
// timed on per set.
const kernelWords = 16

// phase times the engine's phases on one set, in EstimateCtx's order.
// It runs without a deadline and fails only where EstimateCtx fails (a
// brute-force error, or a search error other than a spent budget), so a
// set the service certified does not fail here.
func (r *replayer) phase(req api.CertifyRequest, set []*mat.Dense) error {
	t := r.t
	t.request()
	rs := t.begin("phase")
	defer t.end(rs)

	s := t.begin("jsr.precondition")
	work, _, _ := jsr.Precondition(set)
	t.end(s)
	s = t.begin("jsr.bruteforce")
	bf, err := jsr.BruteForceBoundsCtx(r.ctx, work, req.Brute, jsr.BruteForceOptions{})
	t.end(s)
	if err != nil {
		return err
	}

	opt := req.GripenbergOptions(0)
	opt.DisableEllipsoid = true
	var last jsr.GripenbergState
	levels, frontierMax, levelMax := 0, 0, 0.0
	g := t.begin("jsr.gripenberg")
	level := t.begin("jsr.level")
	closeLevel := func() {
		t.end(level)
		levelMax = math.Max(levelMax, t.spans[level].ms())
	}
	opt.Snapshot = func(st jsr.GripenbergState) error {
		closeLevel()
		levels++
		frontierMax = max(frontierMax, len(st.Frontier))
		last = st
		level = t.begin("jsr.level")
		return nil
	}
	gp, gerr := jsr.GripenbergCtx(r.ctx, work, opt)
	closeLevel()
	t.end(g)
	if gerr != nil && !errors.Is(gerr, jsr.ErrBudget) {
		return gerr
	}

	// EstimateCtx replays both candidate witnesses on the caller's set and
	// skips one whose replay fails; so does the phase replay, counting it.
	s = t.begin("jsr.witness")
	for _, w := range [][]int{bf.WitnessWord, gp.WitnessWord} {
		if len(w) == 0 {
			continue
		}
		t.spans[s].Count++
		if _, err := jsr.WitnessRate(set, w); err != nil {
			t.spans[s].Errors++
			r.phaseErrors++
		}
	}
	t.end(s)

	r.sets++
	if bf.Lower > gp.Lower || bf.Upper < gp.Upper {
		r.tightened++
	}
	k := len(set)
	products := 0
	for l, p := 1, k; l <= req.Brute; l, p = l+1, p*k {
		products += p
	}
	r.products.add(float64(products))
	r.levels.add(float64(levels))
	r.nodes.add(float64(last.Nodes))
	r.frontierMax.add(float64(frontierMax))
	r.levelMsMax.add(levelMax)
	r.kernels(work, last.Frontier)
	return nil
}

// kernels times the per-node kernels of the search on the products of
// the last level's frontier words: the left multiplications that build
// them, then a spectral radius and a 2-norm of each. A spectral radius
// that fails is skipped and counted, not fatal: the timing is
// informational.
func (r *replayer) kernels(work []*mat.Dense, words [][]int) {
	t := r.t
	words = words[:min(len(words), kernelWords)]
	prods := make([]*mat.Dense, 0, len(words))
	s := t.begin("mat.mul")
	for _, w := range words {
		p := work[w[0]]
		for _, a := range w[1:] {
			p = mat.Mul(work[a], p)
			t.spans[s].Count++
		}
		prods = append(prods, p)
	}
	t.end(s)
	s = t.begin("mat.rho")
	for _, p := range prods {
		t.spans[s].Count++
		if _, err := mat.SpectralRadius(p); err != nil {
			t.spans[s].Errors++
			r.phaseErrors++
		}
	}
	t.end(s)
	s = t.begin("mat.twonorm")
	for _, p := range prods {
		mat.TwoNorm(p)
	}
	t.spans[s].Count = len(prods)
	t.end(s)
}

// metrics reduces the spans to the per-layer metrics.
func (r *replayer) metrics() *output {
	t := r.t
	self := t.selfMs()
	var lookup, persist, ckptMs, ckptBytes stat
	for _, s := range t.spans {
		switch {
		case s.Name == "certcache.get", s.Name == "certcache.get_or_compute" && s.Tag != "miss":
			lookup.add(s.ms())
		case s.Name == "certcache.get_or_compute":
			persist.add(self[s.ID])
		case s.Name == "checkpoint.marshal" && s.Tag == "level":
			ckptMs.add(s.ms())
			ckptBytes.add(float64(s.Bytes))
		}
	}
	us := func(name string) float64 { return 1000 * t.meanMs(name) }
	ms := t.meanMs
	mulNs, rhoNs, normNs := 1e6*t.perCall("mat.mul"), 1e6*t.perCall("mat.rho"), 1e6*t.perCall("mat.twonorm")
	// The search expands each level on GOMAXPROCS workers, so the
	// kernels' share is of the workers' combined time.
	gripMs := ms("jsr.gripenberg")
	kernelShare := 0.0
	if gripMs > 0 {
		kernelShare = r.nodes.mean() * (mulNs + rhoNs + normNs) / (gripMs * 1e6 * float64(runtime.GOMAXPROCS(0)))
	}
	tightened := 0.0
	if r.sets > 0 {
		tightened = float64(r.tightened) / float64(r.sets)
	}
	return &output{
		Metrics: map[string]float64{
			"api.decode_us":                       us("api.decode"),
			"api.validate_us":                     us("api.validate"),
			"api.resolve_us":                      us("api.resolve"),
			"api.key_us":                          us("api.key"),
			"api.encode_us":                       us("api.encode"),
			"core.design_us":                      us("core.design"),
			"certcache.lookup_us":                 1000 * lookup.mean(),
			"certcache.persist_ms":                persist.mean(),
			"store.put_ms":                        ms("store.put"),
			"store.open_ms":                       ms("store.open"),
			"checkpoint.job_marshal_ms_per_level": ckptMs.mean(),
			"checkpoint.job_bytes_per_level":      ckptBytes.mean(),
			"jsr.estimate_ms":                     ms("jsr.estimate"),
			"jsr.precondition_ms":                 ms("jsr.precondition"),
			"jsr.bruteforce_ms":                   ms("jsr.bruteforce"),
			"jsr.gripenberg_ms":                   gripMs,
			"jsr.witness_us":                      1000 * t.perCall("jsr.witness"),
			"jsr.gripenberg.levels":               r.levels.mean(),
			"jsr.gripenberg.nodes":                r.nodes.mean(),
			"jsr.gripenberg.frontier_max":         r.frontierMax.mean(),
			"jsr.gripenberg.level_ms_max":         r.levelMsMax.mean(),
			"jsr.bruteforce.products":             r.products.mean(),
			"jsr.bruteforce.tightened_ratio":      tightened,
			"jsr.bruteforce.tightened_base":       float64(r.sets),
			"mat.mul_ns":                          mulNs,
			"mat.rho_ns":                          rhoNs,
			"mat.twonorm_ns":                      normNs,
			"mat.kernel_share":                    kernelShare,
		},
		RequestMs:   t.meanMs("request"),
		Compared:    r.compared,
		Mismatches:  r.mismatches,
		PhaseErrors: r.phaseErrors,
		Spans:       len(t.spans),
	}
}
