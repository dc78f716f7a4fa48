package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

func sampleMany(d TokenDist, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	sort.Ints(out)
	return out
}

func pct(sorted []int, q float64) int {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// TestTable2PercentilesRecovered checks the core substitution claim: the
// fitted log-normals reproduce the published p50/p90 of each dataset within
// sampling tolerance.
func TestTable2PercentilesRecovered(t *testing.T) {
	const n = 40000
	for _, d := range Datasets() {
		for _, side := range []struct {
			name string
			dist TokenDist
		}{{"prompt", d.Prompt}, {"decode", d.Decode}} {
			s := sampleMany(side.dist, n, 7)
			p50 := float64(pct(s, 0.5))
			p90 := float64(pct(s, 0.9))
			if math.Abs(p50-side.dist.P50)/side.dist.P50 > 0.08 {
				t.Errorf("%s %s: sampled p50 %v, want ~%v", d.Name, side.name, p50, side.dist.P50)
			}
			if math.Abs(p90-side.dist.P90)/side.dist.P90 > 0.10 {
				t.Errorf("%s %s: sampled p90 %v, want ~%v", d.Name, side.name, p90, side.dist.P90)
			}
		}
	}
}

func TestTokenDistClamps(t *testing.T) {
	d := TokenDist{P50: 10000, P90: 16000, Max: 12000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := d.Sample(rng)
		if v < 1 || v > 12000 {
			t.Fatalf("sample %d outside [1,12000]", v)
		}
	}
}

func TestQuantileMatchesSpec(t *testing.T) {
	d := ShareGPT.Prompt
	if got := d.Quantile(0.5); math.Abs(got-1730) > 1 {
		t.Errorf("p50 quantile = %v", got)
	}
	if got := d.Quantile(0.9); math.Abs(got-5696) > 1 {
		t.Errorf("p90 quantile = %v", got)
	}
}

func TestNormQuantileSymmetric(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.975} {
		if got := normQuantile(p) + normQuantile(1-p); math.Abs(got) > 1e-6 {
			t.Errorf("normQuantile asymmetric at %v: sum %v", p, got)
		}
	}
	if math.Abs(normQuantile(0.9)-z90) > 1e-6 {
		t.Errorf("normQuantile(0.9) = %v, want %v", normQuantile(0.9), z90)
	}
}

func TestDatasetByName(t *testing.T) {
	d, err := DatasetByName("Azure-Code")
	if err != nil || d.Name != "Azure-Code" {
		t.Fatalf("DatasetByName: %v, %v", d, err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPoissonRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := Poisson{QPS: 4}
	var t0 sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		t0 = p.Next(rng, t0)
	}
	rate := float64(n) / t0.Seconds()
	if math.Abs(rate-4)/4 > 0.05 {
		t.Errorf("empirical rate %v, want ~4", rate)
	}
}

func TestDiurnalRates(t *testing.T) {
	d := Diurnal{LowQPS: 2, HighQPS: 5, HalfPeriod: 15 * sim.Minute}
	if d.RateAt(0) != 2 || d.RateAt(10*sim.Minute) != 2 {
		t.Error("first half-period should be low")
	}
	if d.RateAt(16*sim.Minute) != 5 || d.RateAt(29*sim.Minute) != 5 {
		t.Error("second half-period should be high")
	}
	if d.RateAt(31*sim.Minute) != 2 {
		t.Error("third half-period should be low again")
	}

	// Empirical rates inside each phase.
	rng := rand.New(rand.NewSource(9))
	var t0 sim.Time
	countLow, countHigh := 0, 0
	for t0 < 2*sim.Hour {
		t0 = d.Next(rng, t0)
		if d.RateAt(t0) == 2 {
			countLow++
		} else {
			countHigh++
		}
	}
	// One hour at each rate: expect ~7200 low and ~18000 high.
	if math.Abs(float64(countLow)-7200)/7200 > 0.1 {
		t.Errorf("low-phase arrivals %d, want ~7200", countLow)
	}
	if math.Abs(float64(countHigh)-18000)/18000 > 0.1 {
		t.Errorf("high-phase arrivals %d, want ~18000", countHigh)
	}
}

func defaultSpec(n int) Spec {
	return Spec{
		Dataset:  AzureCode,
		Tiers:    EqualTiers(qos.Table3()),
		Arrivals: Poisson{QPS: 3},
		Requests: n,
		Seed:     11,
	}
}

func TestGenerateBasics(t *testing.T) {
	reqs, err := Generate(defaultSpec(3000))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3000 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	counts := map[string]int{}
	var prev sim.Time
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
		if r.Arrival < prev {
			t.Fatalf("arrivals not sorted at %d", i)
		}
		prev = r.Arrival
		if r.ID != uint64(i+1) {
			t.Fatalf("ID %d at index %d", r.ID, i)
		}
		counts[r.Class.Name]++
	}
	for _, name := range []string{"Q1", "Q2", "Q3"} {
		frac := float64(counts[name]) / 3000
		if math.Abs(frac-1.0/3) > 0.05 {
			t.Errorf("tier %s fraction %v, want ~1/3", name, frac)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(defaultSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(defaultSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("request %d differs between identical specs", i)
		}
	}
}

func TestGenerateLowPriorityFraction(t *testing.T) {
	spec := defaultSpec(5000)
	spec.Tiers = WithLowPriority(spec.Tiers, 0.2)
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, r := range reqs {
		if r.Priority == qos.Low {
			low++
		}
	}
	frac := float64(low) / float64(len(reqs))
	if math.Abs(frac-0.2) > 0.03 {
		t.Errorf("low-priority fraction %v, want ~0.2", frac)
	}
}

func TestWeightedTiers(t *testing.T) {
	classes := qos.Table3()
	tiers, err := WeightedTiers(classes, []float64{0.7, 0.15, 0.15})
	if err != nil {
		t.Fatal(err)
	}
	spec := defaultSpec(6000)
	spec.Tiers = tiers
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	q1 := 0
	for _, r := range reqs {
		if r.Class.Name == "Q1" {
			q1++
		}
	}
	if frac := float64(q1) / 6000; math.Abs(frac-0.7) > 0.03 {
		t.Errorf("Q1 fraction %v, want ~0.7", frac)
	}

	if _, err := WeightedTiers(classes, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedTiers(classes, []float64{0.5, 0.4, 0.2}); err == nil {
		t.Error("fractions summing to 1.1 accepted")
	}
	if _, err := WeightedTiers(classes, []float64{-0.1, 0.6, 0.5}); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := defaultSpec(100)
	bad.Requests = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero requests accepted")
	}
	bad = defaultSpec(100)
	bad.Arrivals = nil
	if _, err := Generate(bad); err == nil {
		t.Error("nil arrivals accepted")
	}
	bad = defaultSpec(100)
	bad.Tiers = nil
	if _, err := Generate(bad); err == nil {
		t.Error("no tiers accepted")
	}
	bad = defaultSpec(100)
	bad.Tiers = []Tier{{Class: qos.Table3()[0], Fraction: 0.5}}
	if _, err := Generate(bad); err == nil {
		t.Error("fractions not summing to 1 accepted")
	}
	bad = defaultSpec(100)
	bad.Dataset.Prompt.P90 = 1
	if _, err := Generate(bad); err == nil {
		t.Error("p90 < p50 accepted")
	}
}

// TestGenerateTraceDigest pins the SHA-256 of WriteTrace's bytes for two
// specs — Table 3 tiers with low-priority requests under Poisson
// arrivals, and bursty Gamma arrivals over per-tier dataset overrides —
// so a change in how Generate builds or draws requests cannot go
// unnoticed.
func TestGenerateTraceDigest(t *testing.T) {
	poisson := defaultSpec(3000)
	poisson.Tiers = WithLowPriority(poisson.Tiers, 0.3)
	code, conv := AzureCode, AzureConv
	classes := qos.Table3()
	bursty := Spec{
		Dataset: ShareGPT,
		Tiers: []Tier{
			{Class: classes[0], Fraction: 0.4, Dataset: &conv},
			{Class: classes[1], Fraction: 0.2},
			{Class: classes[2], Fraction: 0.4, Dataset: &code},
		},
		Arrivals: Gamma{QPS: 8, CV: 3},
		Requests: 32000,
		Seed:     7,
	}
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"poisson", poisson, "f7c80bd74cb68c04f1fbe9ad1ca840e38b2a40bf09b3b956b64763a1de606261"},
		{"bursty", bursty, "5bfb97697eec9a0822fe18647cdefb67acd229b56f776c896a4a8f1e8667f67d"},
	} {
		reqs, err := Generate(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, reqs); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: trace digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spec := defaultSpec(200)
	spec.Tiers = WithLowPriority(spec.Tiers, 0.3)
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("round trip length %d != %d", len(back), len(reqs))
	}
	for i := range reqs {
		if !reflect.DeepEqual(back[i], reqs[i]) {
			t.Fatalf("request %d differs after round trip:\n got %+v\nwant %+v", i, back[i], reqs[i])
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString(`{"kind":"martian"}`)); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := ReadTrace(bytes.NewBufferString(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestCloneResetsExecutionState(t *testing.T) {
	reqs, err := Generate(defaultSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	reqs[0].RecordPrefill(reqs[0].PromptTokens, 5*sim.Second)
	reqs[0].Relegated = true
	cl := Clone(reqs)
	if cl[0].PrefilledTokens != 0 || cl[0].DecodedTokens != 0 || cl[0].Relegated {
		t.Error("clone did not reset execution state")
	}
	if cl[0].PromptTokens != reqs[0].PromptTokens || cl[0].Arrival != reqs[0].Arrival {
		t.Error("clone lost workload fields")
	}
	if cl[0] == reqs[0] {
		t.Error("clone aliases original")
	}
}

func TestLongThreshold(t *testing.T) {
	if got := LongThreshold(AzureCode); math.Abs(float64(got)-6251) > 1 {
		t.Errorf("LongThreshold(AzureCode) = %d, want ~6251", got)
	}
}

// Property: samples are always within [1, max] for arbitrary valid dists.
func TestSampleRangeProperty(t *testing.T) {
	f := func(p50 uint16, spread uint8, seed int64) bool {
		d := TokenDist{P50: float64(p50%5000) + 1}
		d.P90 = d.P50 * (1 + float64(spread%50)/10)
		if d.Validate() != nil {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			v := d.Sample(rng)
			if v < 1 || v > DefaultMaxTokens {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: generated arrival sequences are strictly compatible with the
// requested QPS in expectation (within generous tolerance).
func TestGenerateRateProperty(t *testing.T) {
	for _, qps := range []float64{1, 3, 10} {
		spec := defaultSpec(4000)
		spec.Arrivals = Poisson{QPS: qps}
		reqs, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		last := reqs[len(reqs)-1].Arrival
		rate := float64(len(reqs)) / last.Seconds()
		if math.Abs(rate-qps)/qps > 0.08 {
			t.Errorf("QPS %v: empirical %v", qps, rate)
		}
	}
}

var sinkReqs []*request.Request

func BenchmarkGenerate(b *testing.B) {
	spec := defaultSpec(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reqs, err := Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		sinkReqs = reqs
	}
}

func TestGammaRateAndBurstiness(t *testing.T) {
	const n = 30000
	gaps := func(cv float64) (mean, std float64) {
		rng := rand.New(rand.NewSource(6))
		g := Gamma{QPS: 4, CV: cv}
		var prev sim.Time
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			next := g.Next(rng, prev)
			gap := (next - prev).Seconds()
			sum += gap
			sumSq += gap * gap
			prev = next
		}
		mean = sum / n
		std = math.Sqrt(sumSq/n - mean*mean)
		return mean, std
	}
	for _, cv := range []float64{0.5, 1.0, 2.0} {
		mean, std := gaps(cv)
		if math.Abs(mean-0.25)/0.25 > 0.05 {
			t.Errorf("CV %v: mean gap %v, want ~0.25", cv, mean)
		}
		if got := std / mean; math.Abs(got-cv)/cv > 0.08 {
			t.Errorf("CV %v: empirical CV %v", cv, got)
		}
	}
	// CV defaulting and validation.
	rng := rand.New(rand.NewSource(1))
	if (Gamma{QPS: 1}).Next(rng, 0) <= 0 {
		t.Error("default-CV gamma produced non-positive gap")
	}
	defer func() {
		if recover() == nil {
			t.Error("zero-QPS gamma did not panic")
		}
	}()
	(Gamma{}).Next(rng, 0)
}

func TestGammaBurstierTailsThanPoisson(t *testing.T) {
	// With CV=2, short gaps cluster: the fraction of gaps below a tenth
	// of the mean should clearly exceed Poisson's.
	count := func(p ArrivalProcess) int {
		rng := rand.New(rand.NewSource(9))
		var prev sim.Time
		short := 0
		for i := 0; i < 20000; i++ {
			next := p.Next(rng, prev)
			if (next - prev).Seconds() < 0.025 {
				short++
			}
			prev = next
		}
		return short
	}
	poisson := count(Poisson{QPS: 4})
	bursty := count(Gamma{QPS: 4, CV: 2})
	if bursty <= poisson {
		t.Errorf("gamma CV=2 short gaps %d not above Poisson %d", bursty, poisson)
	}
}

func TestPerTierDatasetOverride(t *testing.T) {
	code := AzureCode
	conv := AzureConv
	classes := qos.Table3()
	tiers := []Tier{
		{Class: classes[0], Fraction: 0.5, Dataset: &conv},
		{Class: classes[2], Fraction: 0.5, Dataset: &code},
	}
	spec := Spec{
		Dataset:  ShareGPT, // overridden by both tiers
		Tiers:    tiers,
		Arrivals: Poisson{QPS: 5},
		Requests: 6000,
		Seed:     31,
	}
	reqs, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var convDecodes, codeDecodes []int
	for _, r := range reqs {
		switch r.Class.Name {
		case "Q1":
			convDecodes = append(convDecodes, r.DecodeTokens)
		case "Q3":
			codeDecodes = append(codeDecodes, r.DecodeTokens)
		}
	}
	sort.Ints(convDecodes)
	sort.Ints(codeDecodes)
	// Azure-Conv decodes (p50 41) vs Azure-Code decodes (p50 8).
	if m := convDecodes[len(convDecodes)/2]; m < 25 || m > 60 {
		t.Errorf("conv-tier median decode = %d, want ~41", m)
	}
	if m := codeDecodes[len(codeDecodes)/2]; m < 5 || m > 12 {
		t.Errorf("code-tier median decode = %d, want ~8", m)
	}

	// Invalid per-tier dataset rejected.
	bad := spec
	badDS := Dataset{Name: "bad", Prompt: TokenDist{P50: 10, P90: 5}, Decode: AzureCode.Decode}
	bad.Tiers = []Tier{{Class: classes[0], Fraction: 1, Dataset: &badDS}}
	if _, err := Generate(bad); err == nil {
		t.Error("invalid per-tier dataset accepted")
	}
}
