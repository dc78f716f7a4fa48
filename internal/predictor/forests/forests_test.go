package forests

import (
	"bytes"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
)

// TestShippedForestsMatchTrainer retrains every preset the way the
// serving processes once did on start-up (profile seed 1, forest seed 1)
// and requires the shipped file to be exactly Save's output. With
// predictor's TestQoservedForestDigests, it shows the shipped forests are
// the ones the trainer grows. `make forests` regenerates the files that
// exist, so the embedded set must also be exactly one file per preset.
func TestShippedForestsMatchTrainer(t *testing.T) {
	entries, err := files.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(Presets()) {
		t.Fatalf("%d shipped forest files for %d presets", len(entries), len(Presets()))
	}
	for _, p := range Presets() {
		samples, err := profile.Collect(p.Model, profile.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		f, err := predictor.Train(samples, predictor.ForestConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := f.Save(&want); err != nil {
			t.Fatal(err)
		}
		got, err := files.ReadFile(p.Hardware + ".forest")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: shipped forest differs from the trainer's; regenerate it with `make forests`", p.Hardware)
		}
	}
}

func TestLoadByModelName(t *testing.T) {
	for _, p := range Presets() {
		f, err := Load(p.Model)
		if err != nil {
			t.Fatalf("%s: %v", p.Hardware, err)
		}
		if f.Trees() == 0 {
			t.Errorf("%s: empty forest", p.Hardware)
		}
	}
	other := model.Llama3_8B_A100_TP1()
	other.TP = 8
	if _, err := Load(other); err == nil {
		t.Error("loaded a forest for a configuration that ships none")
	}
}
