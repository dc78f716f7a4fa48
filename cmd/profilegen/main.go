// Command profilegen runs the offline profiling pass and trains the
// batch-latency random forest for one model/hardware configuration — the
// artifact the paper ships per (model, hardware, parallelism) deployment
// (§3.6.1). The forests the serving processes load are written by it
// (`make forests`, into internal/predictor/forests).
//
//	profilegen -hardware llama3-8b -out llama3-8b.forest
//	profilegen -verify llama3-8b.forest -hardware llama3-8b
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"qoserve/cmd/internal/serving"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profilegen: ")

	var (
		hardware = flag.String("hardware", "llama3-8b", "llama3-8b | qwen-7b | llama3-70b")
		out      = flag.String("out", "", "path to save the trained forest (binary forest format)")
		verify   = flag.String("verify", "", "path of a saved forest to validate instead of training")
		seed     = flag.Int64("seed", 1, "profiling/training seed")
		trees    = flag.Int("trees", 0, "forest size (default 20)")
	)
	flag.Parse()

	mc, err := serving.Hardware(*hardware)
	if err != nil {
		log.Fatal(err)
	}

	if *verify != "" {
		f, err := os.Open(*verify)
		if err != nil {
			log.Fatal(err)
		}
		forest, err := predictor.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded forest: %d trees\n", forest.Trees())
		report(mc, forest)
		return
	}

	log.Printf("profiling %s ...", mc.Name())
	samples, err := profile.Collect(mc, profile.Config{Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("collected %d samples; training ...", len(samples))
	forest, err := predictor.Train(samples, predictor.ForestConfig{Seed: *seed, Trees: *trees})
	if err != nil {
		log.Fatal(err)
	}
	report(mc, forest)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := forest.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("saved forest to %s", *out)
	}
}

// report prints held-out accuracy against the analytic model, mirroring the
// paper's "<10% error margin" check.
func report(mc model.Config, forest *predictor.Forest) {
	rng := rand.New(rand.NewSource(1234))
	var sumErr, worst float64
	const trials = 500
	for i := 0; i < trials; i++ {
		shape := model.BatchShape{}
		if rng.Intn(4) > 0 {
			shape.Prefill = []model.ChunkShape{{
				Tokens: 32 + rng.Intn(4000), CtxStart: rng.Intn(8000),
			}}
		}
		for d := rng.Intn(48); d > 0; d-- {
			shape.DecodeCtx = append(shape.DecodeCtx, rng.Intn(8000))
		}
		if shape.TotalNewTokens() == 0 {
			continue
		}
		truth := mc.BatchTime(shape).Seconds()
		rel := math.Abs(forest.Predict(shape).Seconds()-truth) / truth
		sumErr += rel
		if rel > worst {
			worst = rel
		}
	}
	fmt.Printf("%s: mean relative error %.2f%%, worst %.2f%% over %d random batches\n",
		mc.Name(), 100*sumErr/trials, 100*worst, trials)
}
