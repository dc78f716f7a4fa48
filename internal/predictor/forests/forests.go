// Package forests ships the trained latency predictor of every hardware
// preset the serving processes accept (profile seed 1, forest seed 1), in
// the predictor's binary format. qoserved, qoserve-loadgen and the root
// package's Serve load these on start-up instead of profiling and
// training. `make forests` regenerates the files through cmd/profilegen;
// TestShippedForestsMatchTrainer fails when they drift from what the
// trainer grows.
package forests

import (
	"bytes"
	"embed"
	"fmt"

	"qoserve/internal/model"
	"qoserve/internal/predictor"
)

//go:embed *.forest
var files embed.FS

// Preset is one shipped forest: the -hardware name its file is named
// after, and the cost model it was profiled on.
type Preset struct {
	Hardware string
	Model    model.Config
}

// Presets lists the shipped forests in Table 1 order.
func Presets() []Preset {
	return []Preset{
		{"llama3-8b", model.Llama3_8B_A100_TP1()},
		{"qwen-7b", model.Qwen_7B_A100_TP2()},
		{"llama3-70b", model.Llama3_70B_H100_TP4()},
	}
}

// Load decodes the forest shipped for mc, looked up by mc.Name().
func Load(mc model.Config) (*predictor.Forest, error) {
	name := mc.Name()
	for _, p := range Presets() {
		if p.Model.Name() != name {
			continue
		}
		data, err := files.ReadFile(p.Hardware + ".forest")
		if err != nil {
			return nil, err
		}
		f, err := predictor.Load(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("forests: %s: %w", p.Hardware, err)
		}
		return f, nil
	}
	return nil, fmt.Errorf("forests: no shipped forest for %s", name)
}
