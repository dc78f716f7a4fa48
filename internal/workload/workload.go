// Package workload synthesizes request traces that stand in for the paper's
// evaluation datasets (ShareGPT and the Azure Conversation / Code production
// traces, Table 2).
//
// The real traces are not redistributable, but the evaluation consumes only
// four per-request quantities: arrival time, prompt tokens, decode tokens,
// and QoS tier. The paper publishes the p50/p90 of prompt and decode token
// counts for each dataset; we fit log-normal marginals to those percentiles
// (token-count distributions in LLM traces are famously heavy-tailed and
// well approximated by log-normals), which pins the prefill:decode ratio and
// tail heaviness that drive scheduling behaviour. Arrival times use the same
// processes as the paper: Poisson at fixed QPS, and a diurnal square wave
// between a low and high QPS for the transient-overload study (§4.3).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// z90 is the standard normal 90th-percentile quantile, used to recover the
// log-normal sigma from published p50/p90 values.
const z90 = 1.2815515655446004

// TokenDist is a log-normal token-count distribution pinned by its median
// and 90th percentile.
type TokenDist struct {
	P50 float64
	P90 float64
	Max int // hard clamp; 0 means DefaultMaxTokens
}

// DefaultMaxTokens clamps pathological tail samples to a realistic context
// limit.
const DefaultMaxTokens = 16384

// mu and sigma of the underlying normal.
func (d TokenDist) params() (mu, sigma float64) {
	mu = math.Log(d.P50)
	sigma = math.Log(d.P90/d.P50) / z90
	return mu, sigma
}

// Validate reports a configuration error, if any. Non-finite percentiles
// are rejected explicitly: NaN slips through ordered comparisons (every
// comparison is false), so the conditions are phrased to fail it.
func (d TokenDist) Validate() error {
	if math.IsInf(d.P50, 0) || math.IsInf(d.P90, 0) || !(d.P50 >= 1 && d.P90 >= d.P50) {
		return fmt.Errorf("token dist: need 1 <= p50 <= p90, got p50=%v p90=%v", d.P50, d.P90)
	}
	return nil
}

// Sample draws a token count.
func (d TokenDist) Sample(rng *rand.Rand) int {
	mu, sigma := d.params()
	v := math.Exp(mu + sigma*rng.NormFloat64())
	n := int(math.Round(v))
	if n < 1 {
		n = 1
	}
	max := d.Max
	if max == 0 {
		max = DefaultMaxTokens
	}
	if n > max {
		n = max
	}
	return n
}

// Quantile returns the q-th quantile (0<q<1) of the unclamped distribution.
func (d TokenDist) Quantile(q float64) float64 {
	mu, sigma := d.params()
	return math.Exp(mu + sigma*normQuantile(q))
}

// Mean returns the mean of the unclamped log-normal.
func (d TokenDist) Mean() float64 {
	mu, sigma := d.params()
	return math.Exp(mu + sigma*sigma/2)
}

// normQuantile is the standard normal inverse CDF (Acklam's rational
// approximation; max relative error ~1.15e-9, ample for workload synthesis).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("workload: quantile probability %v outside (0,1)", p))
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Dataset pairs prompt and decode token distributions, mirroring one row of
// the paper's Table 2.
type Dataset struct {
	Name   string
	Prompt TokenDist
	Decode TokenDist
}

// Validate reports a configuration error, if any.
func (d Dataset) Validate() error {
	if err := d.Prompt.Validate(); err != nil {
		return fmt.Errorf("dataset %s prompt: %w", d.Name, err)
	}
	if err := d.Decode.Validate(); err != nil {
		return fmt.Errorf("dataset %s decode: %w", d.Name, err)
	}
	return nil
}

// The three evaluation datasets, fit to Table 2's published percentiles.
var (
	// ShareGPT: long prompts, long decodes.
	ShareGPT = Dataset{Name: "ShareGPT",
		Prompt: TokenDist{P50: 1730, P90: 5696},
		Decode: TokenDist{P50: 415, P90: 834},
	}
	// AzureConv: conversation production trace.
	AzureConv = Dataset{Name: "Azure-Conv",
		Prompt: TokenDist{P50: 928, P90: 3830},
		Decode: TokenDist{P50: 41, P90: 342},
	}
	// AzureCode: code production trace — long prompts, tiny decodes.
	AzureCode = Dataset{Name: "Azure-Code",
		Prompt: TokenDist{P50: 1930, P90: 6251},
		Decode: TokenDist{P50: 8, P90: 43},
	}
)

// Datasets returns the three evaluation datasets in Table 2 order.
func Datasets() []Dataset { return []Dataset{ShareGPT, AzureConv, AzureCode} }

// DatasetByName looks a dataset up case-sensitively by its Table 2 name.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// Tier binds a QoS class to its share of the workload and the fraction of
// its requests tagged low-priority (free tier).
type Tier struct {
	Class       qos.Class
	Fraction    float64
	LowPriority float64 // fraction of this tier's requests tagged qos.Low
	// Dataset, when non-zero, overrides the Spec's dataset for this tier:
	// different applications rarely share token-count shapes (a chat tier
	// and a code tier are different workloads), which the paper's
	// single-dataset split flattens.
	Dataset *Dataset
}

// EqualTiers spreads classes uniformly with no low-priority requests
// (the paper's default 33/33/33 split, Table 3).
func EqualTiers(classes []qos.Class) []Tier {
	tiers := make([]Tier, len(classes))
	for i, c := range classes {
		tiers[i] = Tier{Class: c, Fraction: 1 / float64(len(classes))}
	}
	return tiers
}

// WeightedTiers assigns explicit fractions (e.g. the 70-15-15 mix of §4.4.2).
func WeightedTiers(classes []qos.Class, fractions []float64) ([]Tier, error) {
	if len(classes) != len(fractions) {
		return nil, fmt.Errorf("workload: %d classes but %d fractions", len(classes), len(fractions))
	}
	sum := 0.0
	tiers := make([]Tier, len(classes))
	for i := range classes {
		if fractions[i] < 0 {
			return nil, fmt.Errorf("workload: negative fraction %v", fractions[i])
		}
		sum += fractions[i]
		tiers[i] = Tier{Class: classes[i], Fraction: fractions[i]}
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("workload: fractions sum to %v, want 1", sum)
	}
	return tiers, nil
}

// WithLowPriority returns a copy of tiers with the given low-priority
// fraction applied to every tier (Fig. 12 marks 20% of each tier free-tier).
func WithLowPriority(tiers []Tier, frac float64) []Tier {
	out := make([]Tier, len(tiers))
	for i, t := range tiers {
		t.LowPriority = frac
		out[i] = t
	}
	return out
}

// ArrivalProcess produces successive inter-arrival gaps.
type ArrivalProcess interface {
	// Next returns the absolute arrival time of the next request given
	// the previous arrival time.
	Next(rng *rand.Rand, prev sim.Time) sim.Time
}

// Poisson is a homogeneous Poisson arrival process at a fixed rate.
type Poisson struct {
	QPS float64
}

// Next draws an exponential inter-arrival gap.
func (p Poisson) Next(rng *rand.Rand, prev sim.Time) sim.Time {
	if !(p.QPS > 0) { // also catches NaN, which would yield NaN arrival times
		panic("workload: Poisson QPS must be positive")
	}
	gap := rng.ExpFloat64() / p.QPS
	return prev + sim.FromSeconds(gap)
}

// Gamma is a renewal arrival process with gamma-distributed inter-arrival
// times, parameterized by rate and coefficient of variation. CV = 1 is
// Poisson; CV > 1 is burstier (heavier clumping), CV < 1 is smoother —
// the knob Sarathi-style evaluations use to stress schedulers beyond
// Poisson arrivals.
type Gamma struct {
	QPS float64
	CV  float64
}

// Next draws a gamma inter-arrival gap with mean 1/QPS and the configured
// coefficient of variation.
func (g Gamma) Next(rng *rand.Rand, prev sim.Time) sim.Time {
	if !(g.QPS > 0) { // also catches NaN
		panic("workload: Gamma QPS must be positive")
	}
	cv := g.CV
	if !(cv > 0) { // non-positive or NaN: fall back to Poisson shape
		cv = 1
	}
	// Clamp to a sane band: beyond it the shape/scale split overflows —
	// k underflows to 0 (or theta to 0) and the gap becomes 0 * Inf = NaN.
	cv = math.Min(math.Max(cv, 1e-3), 1e3)
	// shape k = 1/CV^2, scale theta = mean/k.
	k := 1 / (cv * cv)
	theta := (1 / g.QPS) / k
	return prev + sim.FromSeconds(gammaSample(rng, k)*theta)
}

// gammaSample draws from Gamma(k, 1) using Marsaglia-Tsang for k >= 1 and
// the boost transform for k < 1.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k).
		return gammaSample(rng, k+1) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Diurnal is a square-wave-modulated Poisson process alternating between
// LowQPS and HighQPS every HalfPeriod, starting low. This compresses the
// weekly diurnal pattern the paper models in §4.3 (2.0 <-> 5.0 QPS every
// 15 minutes over 4 hours).
type Diurnal struct {
	LowQPS     float64
	HighQPS    float64
	HalfPeriod sim.Time
}

// RateAt returns the instantaneous arrival rate at time t.
func (d Diurnal) RateAt(t sim.Time) float64 {
	if d.HalfPeriod <= 0 {
		panic("workload: Diurnal half-period must be positive")
	}
	phase := (t / d.HalfPeriod) % 2
	if phase == 0 {
		return d.LowQPS
	}
	return d.HighQPS
}

// Next draws the next arrival using thinning against the piecewise-constant
// rate.
func (d Diurnal) Next(rng *rand.Rand, prev sim.Time) sim.Time {
	maxRate := math.Max(d.LowQPS, d.HighQPS)
	if !(maxRate > 0) { // also catches NaN, which would hang the thinning loop
		panic("workload: Diurnal rates must be positive")
	}
	t := prev
	for {
		t += sim.FromSeconds(rng.ExpFloat64() / maxRate)
		if rng.Float64() <= d.RateAt(t)/maxRate {
			return t
		}
	}
}

// Spec fully describes a synthetic trace.
type Spec struct {
	Dataset  Dataset
	Tiers    []Tier
	Arrivals ArrivalProcess
	Requests int
	Seed     int64
}

// Validate reports a configuration error, if any.
func (s Spec) Validate() error {
	if err := s.Dataset.Validate(); err != nil {
		return err
	}
	if len(s.Tiers) == 0 {
		return fmt.Errorf("workload: no tiers")
	}
	sum := 0.0
	for _, t := range s.Tiers {
		if err := t.Class.Validate(); err != nil {
			return err
		}
		// Phrased to also reject NaN, which passes every ordered check.
		if !(t.Fraction >= 0) || !(t.LowPriority >= 0 && t.LowPriority <= 1) {
			return fmt.Errorf("workload: tier %s has invalid fractions", t.Class.Name)
		}
		if t.Dataset != nil {
			if err := t.Dataset.Validate(); err != nil {
				return err
			}
		}
		sum += t.Fraction
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload: tier fractions sum to %v, want 1", sum)
	}
	if s.Arrivals == nil {
		return fmt.Errorf("workload: nil arrival process")
	}
	if s.Requests <= 0 {
		return fmt.Errorf("workload: request count %d", s.Requests)
	}
	return nil
}

// Generate synthesizes the trace. Requests are returned in arrival order
// with sequential IDs; the App field is the tier's class name, which keys
// the per-application decode-length history QoServe maintains.
func Generate(spec Spec) ([]*request.Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	// One slab backs every request: two allocations per trace instead of
	// one per request.
	slab := make([]request.Request, spec.Requests)
	reqs := make([]*request.Request, spec.Requests)
	var t sim.Time
	for i := 0; i < spec.Requests; i++ {
		t = spec.Arrivals.Next(rng, t)
		tier := pickTier(spec.Tiers, rng)
		prio := qos.High
		if rng.Float64() < tier.LowPriority {
			prio = qos.Low
		}
		ds := spec.Dataset
		if tier.Dataset != nil {
			ds = *tier.Dataset
		}
		slab[i] = request.Request{
			ID:           uint64(i + 1),
			App:          tier.Class.Name,
			Class:        tier.Class,
			Priority:     prio,
			Arrival:      t,
			PromptTokens: ds.Prompt.Sample(rng),
			DecodeTokens: ds.Decode.Sample(rng),
		}
		reqs[i] = &slab[i]
	}
	return reqs, nil
}

func pickTier(tiers []Tier, rng *rand.Rand) Tier {
	u := rng.Float64()
	acc := 0.0
	for _, t := range tiers {
		acc += t.Fraction
		if u < acc {
			return t
		}
	}
	return tiers[len(tiers)-1]
}

// LongThreshold returns the 90th-percentile prompt length of the dataset,
// the paper's cut between "short" and "long" requests (Fig. 11).
func LongThreshold(d Dataset) int {
	return int(math.Round(d.Prompt.Quantile(0.9)))
}
