// Package model provides the analytic execution-cost model that stands in
// for real GPU hardware in this reproduction.
//
// The paper evaluates QoServe on A100/H100 clusters running vLLM. Scheduling
// results depend on hardware only through one function: the time a replica
// takes to execute a mixed prefill/decode batch of a given shape. This
// package supplies that function from first principles (a roofline model:
// MLP FLOPs, attention FLOPs, KV-cache memory traffic, tensor-parallel
// communication, and a fixed per-iteration overhead), calibrated so that the
// chunk-size -> (throughput, latency) curve reproduces the shape of the
// paper's Figure 4: latency grows linearly with chunk size, crossing ~50 ms
// near chunk 330 for Llama3-8B on A100, with throughput saturating around
// chunk 2500 at roughly 2x the throughput of the default 256 chunk.
package model

import (
	"fmt"

	"qoserve/internal/sim"
)

// Attention identifies the attention variant, which determines KV-cache
// size and decode memory traffic.
type Attention string

// Attention mechanisms used by the paper's evaluation models (Table 1).
const (
	GQA Attention = "GQA" // grouped-query attention (fewer KV heads)
	MHA Attention = "MHA" // multi-head attention (KV heads == query heads)
)

// ModelSpec describes a transformer's size-relevant hyperparameters.
type ModelSpec struct {
	Name      string
	Params    float64 // total parameter count
	Layers    int
	Hidden    int // model (embedding) dimension
	QHeads    int
	KVHeads   int
	HeadDim   int
	Attention Attention
}

// Validate reports a configuration error, if any.
func (m ModelSpec) Validate() error {
	switch {
	case m.Params <= 0:
		return fmt.Errorf("model %s: non-positive param count", m.Name)
	case m.Layers <= 0 || m.Hidden <= 0 || m.QHeads <= 0 || m.KVHeads <= 0 || m.HeadDim <= 0:
		return fmt.Errorf("model %s: non-positive dimension", m.Name)
	case m.QHeads%m.KVHeads != 0:
		return fmt.Errorf("model %s: QHeads %d not divisible by KVHeads %d", m.Name, m.QHeads, m.KVHeads)
	}
	return nil
}

// KVBytesPerToken returns the KV-cache footprint of one token across all
// layers, assuming 2-byte (fp16/bf16) elements.
//
//qoserve:hotpath
func (m ModelSpec) KVBytesPerToken() float64 {
	// K and V, per layer, per KV head, per head dim, 2 bytes each.
	return 2 * float64(m.Layers) * float64(m.KVHeads) * float64(m.HeadDim) * 2
}

// GPUSpec describes one accelerator.
type GPUSpec struct {
	Name         string
	FLOPS        float64 // peak dense bf16 FLOP/s
	MemBandwidth float64 // HBM bandwidth, bytes/s
	MemBytes     float64 // HBM capacity, bytes
	InterconnBW  float64 // per-direction NVLink bandwidth, bytes/s
}

// Validate reports a configuration error, if any.
func (g GPUSpec) Validate() error {
	if g.FLOPS <= 0 || g.MemBandwidth <= 0 || g.MemBytes <= 0 || g.InterconnBW <= 0 {
		return fmt.Errorf("gpu %s: non-positive capability", g.Name)
	}
	return nil
}

// Config binds a model to hardware with a tensor-parallel degree and the
// calibration constants of the cost model. Construct with NewConfig or one
// of the presets; the zero value is not usable.
type Config struct {
	Model ModelSpec
	GPU   GPUSpec
	TP    int // tensor-parallel degree (number of GPUs per replica)

	// Efficiency is the fraction of peak FLOPs achieved on large GEMMs
	// (model FLOPs utilization at saturation).
	Efficiency float64

	// IterOverhead is the fixed per-iteration cost: kernel launches,
	// scheduler bookkeeping, sampling, and the memory-bound floor of
	// reading model weights once per iteration. It is the dominant reason
	// small chunks waste throughput (Fig. 4).
	IterOverhead sim.Time

	// ActivationReserve is HBM held back for activations and fragmentation
	// when computing KV-cache capacity, bytes per replica.
	ActivationReserve float64
}

// NewConfig validates and returns a config.
func NewConfig(m ModelSpec, g GPUSpec, tp int, efficiency float64, overhead sim.Time) (Config, error) {
	c := Config{
		Model: m, GPU: g, TP: tp,
		Efficiency:        efficiency,
		IterOverhead:      overhead,
		ActivationReserve: 6e9,
	}
	return c, c.Validate()
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	switch {
	case c.TP <= 0:
		return fmt.Errorf("config %s: TP must be positive, got %d", c.Name(), c.TP)
	case c.Efficiency <= 0 || c.Efficiency > 1:
		return fmt.Errorf("config %s: efficiency %v outside (0,1]", c.Name(), c.Efficiency)
	case c.IterOverhead < 0:
		return fmt.Errorf("config %s: negative iteration overhead", c.Name())
	}
	return nil
}

// Name returns a human-readable identifier like "Llama3-8B/A100-TP1".
func (c Config) Name() string {
	return fmt.Sprintf("%s/%s-TP%d", c.Model.Name, c.GPU.Name, c.TP)
}

// GPUs returns the number of GPUs one replica occupies.
func (c Config) GPUs() int { return c.TP }

// effectiveFLOPS is the usable aggregate FLOP rate across the TP group.
//
//qoserve:hotpath
func (c Config) effectiveFLOPS() float64 {
	return c.GPU.FLOPS * c.Efficiency * float64(c.TP)
}

// LinearTimePerToken is the time to push one token through the model's
// linear (MLP + projection) layers, including tensor-parallel all-reduce
// traffic. Attention-over-context costs are separate.
//
//qoserve:hotpath
func (c Config) LinearTimePerToken() sim.Time {
	compute := 2 * c.Model.Params / c.effectiveFLOPS() // 2 FLOPs per param per token
	comm := 0.0
	if c.TP > 1 {
		// Two all-reduces per layer, each moving ~hidden activations of
		// 2 bytes, ring cost scaled by (tp-1)/tp.
		bytes := 2 * float64(c.Model.Layers) * float64(c.Model.Hidden) * 2
		comm = bytes * float64(c.TP-1) / float64(c.TP) / c.GPU.InterconnBW
	}
	return sim.FromSeconds(compute + comm)
}

// PrefillAttnTime is the compute time for attention of a prefill chunk of
// chunkTokens tokens whose first token already has ctxStart tokens of
// context (earlier chunks of the same prompt).
//
//qoserve:hotpath
func (c Config) PrefillAttnTime(chunkTokens, ctxStart int) sim.Time {
	if chunkTokens <= 0 {
		return 0
	}
	avgCtx := float64(ctxStart) + float64(chunkTokens)/2
	// QK^T and AV each cost 2*hidden FLOPs per (token, context) pair.
	flops := 4 * float64(c.Model.Layers) * float64(c.Model.Hidden) * float64(chunkTokens) * avgCtx
	return sim.FromSeconds(flops / c.effectiveFLOPS())
}

// DecodeAttnTime is the memory-bound time for one decode token attending
// over ctx tokens of KV cache.
//
//qoserve:hotpath
func (c Config) DecodeAttnTime(ctx int) sim.Time {
	bytes := c.Model.KVBytesPerToken() * float64(ctx)
	bw := c.GPU.MemBandwidth * float64(c.TP)
	return sim.FromSeconds(bytes / bw)
}

// KVCapacityTokens is the number of KV-cache tokens a replica can hold:
// HBM across the TP group, minus weights and the activation reserve.
func (c Config) KVCapacityTokens() int {
	total := c.GPU.MemBytes * float64(c.TP)
	weights := 2 * c.Model.Params // bf16
	free := total - weights - c.ActivationReserve
	if free <= 0 {
		return 0
	}
	return int(free / c.Model.KVBytesPerToken())
}

// ChunkShape describes the prefill chunk of one request inside a batch.
type ChunkShape struct {
	Tokens   int // new prompt tokens processed this iteration
	CtxStart int // prompt tokens already processed in earlier chunks
}

// BatchShape is everything the cost model needs to price one iteration.
type BatchShape struct {
	Prefill []ChunkShape
	// DecodeCtx holds, for each request in decode phase, its current
	// context length (prompt + generated so far).
	DecodeCtx []int
}

// TotalNewTokens is the number of tokens produced/processed this iteration.
//
//qoserve:hotpath
func (b BatchShape) TotalNewTokens() int {
	n := len(b.DecodeCtx)
	for _, p := range b.Prefill {
		n += p.Tokens
	}
	return n
}

// BatchTime predicts the execution latency of one iteration over the given
// batch. An empty batch costs nothing.
//
//qoserve:hotpath
func (c Config) BatchTime(b BatchShape) sim.Time {
	newTokens := b.TotalNewTokens()
	if newTokens == 0 {
		return 0
	}
	t := c.IterOverhead
	t += sim.Time(int64(c.LinearTimePerToken()) * int64(newTokens))
	for _, p := range b.Prefill {
		t += c.PrefillAttnTime(p.Tokens, p.CtxStart)
	}
	for _, ctx := range b.DecodeCtx {
		t += c.DecodeAttnTime(ctx)
	}
	return t
}

// PrefillThroughput reports steady-state prefill tokens/s when running
// back-to-back iterations of the given chunk size at the given average
// context offset, with no decodes in the batch. This is the quantity
// plotted in the paper's Figure 4.
func (c Config) PrefillThroughput(chunk, ctxStart int) float64 {
	t := c.BatchTime(BatchShape{Prefill: []ChunkShape{{Tokens: chunk, CtxStart: ctxStart}}})
	if t <= 0 {
		return 0
	}
	return float64(chunk) / t.Seconds()
}
