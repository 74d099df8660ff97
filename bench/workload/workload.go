// Package workload defines the certifier benchmark's workloads and
// generates their request bodies from a seed. It uses only the
// standard library and speaks the wire JSON of POST /v1/certify, so the
// end-to-end load generator never depends on the service's internal
// packages.
//
// The base matrix sets are committed under testdata/ (the lifted PMSM
// design at Rmax = 1.6·T), so a later change to design synthesis cannot
// change a workload. A literal request multiplies every entry of its
// base set by Factor(g) = 1 + 1e-9·u(g) for a stream index g: every
// cache key is distinct, while every search tree keeps the same shape.
//
// The stream indices come from a fixed universe [0, Universe) committed
// with each base set, minus indices whose factor repeats an earlier
// one and the indices on which the engine failed to certify when the
// universe was generated (the Lyapunov-preconditioned
// set then hits an eigenvalue iteration that does not converge, about
// one index in 2000 for the 3-mode set). The seed picks where in the
// universe a run starts, so the same seed gives the same inputs and no
// request fails on today's engine.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Spec describes one workload.
type Spec struct {
	Name string
	// Base is the testdata file holding the base Ω-set.
	Base string
	// Async adds a node budget above the synchronous limit, which routes
	// every request through the job queue without changing its bracket.
	Async bool
	// Warm replays a fixed working set that is computed during set-up.
	Warm bool
	// TraceRequests is the prefix of requests the traced run replays.
	TraceRequests int
}

// Specs lists the workloads in the order BENCHMARK.json names them.
var Specs = []Spec{
	{Name: "cold_gripenberg", Base: "pmsm_ns5.json", TraceRequests: 20},
	{Name: "cold_bruteforce", Base: "pmsm_ns2.json", TraceRequests: 200},
	{Name: "async_jobs", Base: "pmsm_ns5.json", Async: true, TraceRequests: 20},
	{Name: "warm_replay", Base: "pmsm_ns2.json", Warm: true, TraceRequests: 5000},
}

// Lookup returns the workload called name.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Working-set composition of warm_replay, and the node budget of
// async_jobs: one above the service's synchronous limit (2 000 000),
// far above the ≈24k nodes the search spends, so the bracket is the
// same as on the synchronous path.
const (
	WarmLiteral   = 64
	WarmScenarios = 16
	AsyncMaxNodes = 2_000_001
)

// Streams drawn from the seed: where a run starts in the universe,
// the scenario requests' Rmax factors, and warm_replay's picks.
const (
	startStream    = uint64(0)
	scenarioStream = uint64(1) << 40
	pickStream     = uint64(2) << 40
)

// Set is a matrix set in wire form: matrices × rows × columns.
type Set [][][]float64

// Scenario is the wire form of a named design request.
type Scenario struct {
	Name       string  `json:"name"`
	Ns         int     `json:"ns"`
	RmaxFactor float64 `json:"rmax_factor"`
}

// Request is the wire form of one certification request. Zero budget
// fields are omitted, so the service applies its defaults.
type Request struct {
	Version  int       `json:"version"`
	Matrices Set       `json:"matrices,omitempty"`
	Scenario *Scenario `json:"scenario,omitempty"`
	MaxNodes int       `json:"max_nodes,omitempty"`
}

// Inputs generates the request bodies of one workload at one seed.
type Inputs struct {
	Spec Spec
	Seed int64
	// K and N are the matrix count and dimension every request of the
	// workload certifies (scenario requests resolve to the same shape).
	K, N int

	base    Set
	allowed []uint64 // the universe minus the excluded stream indices
	start   int      // position in allowed of measured request 0
	working [][]byte // warm_replay only
}

// BaseFile is the committed form of a base Ω-set and its universe of
// stream indices.
type BaseFile struct {
	Scenario   string  `json:"scenario"`
	Ns         int     `json:"ns"`
	RmaxFactor float64 `json:"rmax_factor"`
	Matrices   Set     `json:"matrices"`
	// Universe bounds the stream indices literal requests draw from.
	Universe int `json:"universe"`
	// Excluded lists the indices on which the engine did not certify.
	Excluded []uint64 `json:"excluded"`
}

// New loads the workload's base set from dir (bench/testdata) and
// prepares its inputs for seed.
func New(spec Spec, dir string, seed int64) (*Inputs, error) {
	data, err := os.ReadFile(filepath.Join(dir, spec.Base))
	if err != nil {
		return nil, fmt.Errorf("workload: reading base set: %w", err)
	}
	var bf BaseFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("workload: parsing %s: %w", spec.Base, err)
	}
	if len(bf.Matrices) == 0 || len(bf.Matrices[0]) == 0 {
		return nil, fmt.Errorf("workload: %s holds no matrices", spec.Base)
	}
	excluded := map[uint64]bool{}
	for _, g := range bf.Excluded {
		excluded[g] = true
	}
	in := &Inputs{Spec: spec, Seed: seed, K: len(bf.Matrices), N: len(bf.Matrices[0]), base: bf.Matrices}
	// 1 + 1e-9·u takes only ≈4.5 million float64 values, so indices of a
	// large universe can share a factor, and with it a cache key; keep
	// the first index of each factor.
	seen := map[uint64]bool{}
	for g := uint64(0); g < uint64(bf.Universe); g++ {
		f := math.Float64bits(Factor(g))
		if !excluded[g] && !seen[f] {
			in.allowed = append(in.allowed, g)
		}
		seen[f] = true
	}
	if len(in.allowed) < 2*WarmLiteral {
		return nil, fmt.Errorf("workload: %s has a universe of %d usable stream indices", spec.Base, len(in.allowed))
	}
	in.start = int(Uniform(seed, startStream) * float64(len(in.allowed)))
	if spec.Warm {
		for i := 0; i < WarmLiteral; i++ {
			in.working = append(in.working, in.literal(i))
		}
		for j := 0; j < WarmScenarios; j++ {
			// r in (1.5, 2.0]: every such Rmax gives the 3-mode set at ns = 2.
			r := 1.5 + 0.5*(1-Uniform(seed, scenarioStream+uint64(j)))
			in.working = append(in.working, mustMarshal(Request{
				Version:  1,
				Scenario: &Scenario{Name: bf.Scenario, Ns: bf.Ns, RmaxFactor: r},
			}))
		}
	}
	return in, nil
}

// Capacity is how many distinct measured requests a literal workload
// can send: half the usable universe (the other half serves set-up).
// A run that needs more would repeat keys and measure cache hits.
func (in *Inputs) Capacity() int { return len(in.allowed) / 2 }

// Body returns the body of measured request i.
func (in *Inputs) Body(i uint64) []byte {
	if in.Spec.Warm {
		return in.working[in.Pick(i)]
	}
	return in.literal(int(i % uint64(in.Capacity())))
}

// WarmupBody returns the body of set-up request j, from the half of the
// universe the measured requests do not use.
func (in *Inputs) WarmupBody(j int) []byte { return in.literal(in.Capacity() + j) }

// WorkingSet returns warm_replay's distinct bodies, in set-up order.
func (in *Inputs) WorkingSet() [][]byte { return in.working }

// Pick returns the working-set entry warm_replay sends as request i.
func (in *Inputs) Pick(i uint64) int {
	return int(Uniform(in.Seed, pickStream+i) * float64(len(in.working)))
}

// literal is the base set perturbed for the p-th usable stream index
// after the run's start.
func (in *Inputs) literal(p int) []byte {
	req := Request{Version: 1, Matrices: Perturb(in.base, in.allowed[(in.start+p)%len(in.allowed)])}
	if in.Spec.Async {
		req.MaxNodes = AsyncMaxNodes
	}
	return mustMarshal(req)
}

// Perturb returns base with every entry multiplied by Factor(g).
func Perturb(base Set, g uint64) Set {
	f := Factor(g)
	set := make(Set, len(base))
	for m, rows := range base {
		set[m] = make([][]float64, len(rows))
		for r, row := range rows {
			set[m][r] = make([]float64, len(row))
			for c, v := range row {
				set[m][r][c] = v * f
			}
		}
	}
	return set
}

// Factor is the scale applied to stream index g: 1 + 1e-9·u with u in
// [0, 1) a function of g alone.
func Factor(g uint64) float64 { return 1 + 1e-9*Uniform(0, g) }

// Uniform returns a number in [0, 1) that depends only on (seed, i).
func Uniform(seed int64, i uint64) float64 {
	return float64(splitmix64(splitmix64(uint64(seed))+i)>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mustMarshal encodes a Request; it cannot fail for finite floats,
// which is all the base sets hold.
func mustMarshal(r Request) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("workload: encoding request: %v", err))
	}
	return b
}

// WriteBase writes a base set in the committed testdata format.
func WriteBase(path string, bf BaseFile) error {
	data, err := json.MarshalIndent(bf, "", " ")
	if err != nil {
		return fmt.Errorf("workload: encoding base set: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
