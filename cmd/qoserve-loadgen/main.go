// Command qoserve-loadgen benchmarks the live serving gateway with
// deterministic open- or closed-loop load. It embeds the gateway in-process
// (same construction as qoserved) so a run measures the serving path —
// admission, scheduling, batching, token fan-out — without network noise,
// and a fixed seed replays the identical request list.
//
//	# closed loop: 32 concurrent streams until 500 requests finish
//	qoserve-loadgen -policy sarathi-fcfs -replicas 4 -n 500 -workers 32
//
//	# open loop: Poisson arrivals at 200 req/s of wall time
//	qoserve-loadgen -mode open -rate 200 -n 1000 -timescale 500
//
// The exit status is non-zero if any request fails to complete or (unless
// -allow-drops) any token event was dropped on a full stream buffer, so CI
// can use a short run as a no-silent-drop smoke test. -json emits the
// report as machine-readable JSON on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"qoserve/cmd/internal/serving"
	"qoserve/internal/cluster"
	"qoserve/internal/kvcache"
	"qoserve/internal/loadgen"
	"qoserve/internal/qos"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qoserve-loadgen: ")

	var (
		hardware   = flag.String("hardware", "llama3-8b", "llama3-8b | qwen-7b | llama3-70b")
		policyName = flag.String("policy", "sarathi-fcfs", "qoserve | sarathi-fcfs | sarathi-edf | sarathi-srpf | vllm | medha")
		chunk      = flag.Int("chunk", 512, "fixed chunk for Sarathi policies")
		replicas   = flag.Int("replicas", 1, "independent scheduler replicas (serving loops)")
		balancer   = flag.String("balancer", "round-robin", "replica routing: round-robin | least-loaded | prefix | predicted")
		streamBuf  = flag.Int("stream-buffer", 256, "per-stream event buffer (events)")
		timescale  = flag.Float64("timescale", 200, "virtual-time acceleration factor")
		seed       = flag.Int64("seed", 1, "workload seed; same seed replays the identical request list")
		mode       = flag.String("mode", "closed", "arrival discipline: closed | open")
		rate       = flag.Float64("rate", 100, "open-loop arrival rate (req/s of wall time)")
		workers    = flag.Int("workers", 16, "closed-loop concurrent streams")
		n          = flag.Int("n", 200, "total requests")
		mix        = flag.String("mix", "Q1:0.5,Q2:0.3,Q3:0.2", "class mix as name:weight pairs")
		promptP50  = flag.Float64("prompt-p50", 512, "prompt token median")
		promptP90  = flag.Float64("prompt-p90", 1024, "prompt token 90th percentile")
		decodeP50  = flag.Float64("decode-p50", 16, "decode token median")
		decodeP90  = flag.Float64("decode-p90", 64, "decode token 90th percentile")
		turns      = flag.Int("session-turns", 0, "turns per conversation; > 0 enables session mode (shared-prefix multi-turn load)")
		followP50  = flag.Float64("follow-p50", 64, "session-mode follow-up user tokens median")
		followP90  = flag.Float64("follow-p90", 128, "session-mode follow-up user tokens 90th percentile")
		prefixMin  = flag.Int("prefix-min-match", cluster.DefaultMinMatchTokens, "smallest cached-prefix match (tokens) the prefix balancer chases")
		kvDRAM     = flag.Int("kv-dram-tokens", 0, "DRAM spill tier per replica (tokens); 0 evicts demoted prefix blocks outright")
		kvXferGbps = flag.Float64("kv-transfer-gbps", 0, "cross-replica KV migration interconnect (GB/s); 0 recomputes missed prefixes instead")
		jsonOut    = flag.Bool("json", false, "emit the report as JSON on stdout")
		allowDrops = flag.Bool("allow-drops", false, "do not fail on dropped stream events")
	)
	flag.Parse()

	stack, err := serving.Build(serving.Options{
		Hardware:       *hardware,
		Policy:         *policyName,
		Chunk:          *chunk,
		Balancer:       *balancer,
		PrefixMin:      *prefixMin,
		KVTransferGbps: *kvXferGbps,
	})
	if err != nil {
		log.Fatal(err)
	}
	mc := stack.Model

	classes, err := parseMix(*mix,
		workload.TokenDist{P50: *promptP50, P90: *promptP90, Max: 8192},
		workload.TokenDist{P50: *decodeP50, P90: *decodeP90, Max: 4096})
	if err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{
		Model:               mc,
		SchedulerFactory:    stack.SchedulerFactory,
		Replicas:            *replicas,
		Balancer:            stack.Balancer,
		KV:                  kvcache.Config{DRAMTokens: *kvDRAM},
		KVTransferBandwidth: *kvXferGbps * 1e9,
		StreamBuffer:        *streamBuf,
		Classes:             qos.Table3(),
		Timescale:           *timescale,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	spec := loadgen.Spec{
		Seed:         *seed,
		Mode:         loadgen.Mode(*mode),
		Requests:     *n,
		Workers:      *workers,
		Rate:         *rate,
		Classes:      classes,
		SessionTurns: *turns,
		FollowUp:     workload.TokenDist{P50: *followP50, P90: *followP90, Max: 4096},
	}
	log.Printf("driving %s/%s: %d replicas, %s loop, %d requests, seed %d, %gx time",
		mc.Name(), *policyName, *replicas, *mode, *n, *seed, *timescale)
	rep, err := loadgen.Run(context.Background(), srv, spec)
	if err != nil {
		log.Fatal(err)
	}
	dropped := srv.DroppedEvents()
	kvStats := srv.KVStats()

	if *jsonOut {
		out := struct {
			loadgen.Report
			DroppedEvents uint64 `json:"dropped_events"`
			Replicas      int    `json:"replicas"`
			Policy        string `json:"policy"`
			Balancer      string `json:"balancer"`
			Seed          int64  `json:"seed"`
			ReloadTokens  uint64 `json:"prefix_reload_tokens"`
		}{rep, dropped, *replicas, *policyName, *balancer, *seed, kvStats.ReloadTokens}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("completed  %d/%d (%d errors)\n", rep.Completed, rep.Requests, rep.Errors)
		fmt.Printf("throughput %.1f req/s, %.0f tokens/s over %.2fs\n", rep.ReqPerSec, rep.TokensPerSec, rep.WallSeconds)
		fmt.Printf("TTFT       p50 %.1fms  p99 %.1fms (virtual)\n", rep.TTFTP50MS, rep.TTFTP99MS)
		fmt.Printf("max TBT    p50 %.1fms  p99 %.1fms (virtual)\n", rep.TBTP50MS, rep.TBTP99MS)
		fmt.Printf("violated   %d  relegated %d  dropped events %d\n", rep.Violated, rep.Relegated, dropped)
		if *turns > 0 {
			fmt.Printf("prefix     %d tokens hit, %d reloaded from DRAM, %d recomputed\n",
				kvStats.PrefixHitTokens, kvStats.ReloadTokens, rep.PrefixRecomputeTokens)
			if *kvXferGbps > 0 {
				fmt.Printf("transfer   %d tokens imported cross-replica, %d fallbacks\n",
					kvStats.PrefixTransferTokens, kvStats.TransferFallbacks)
			}
		}
		for _, pc := range rep.PerClass {
			fmt.Printf("  %-4s completed %-5d violated %d\n", pc.Name, pc.Completed, pc.Violated)
		}
	}

	if rep.Completed != rep.Requests || rep.Errors != 0 {
		log.Fatalf("FAIL: %d of %d requests completed (%d errors)", rep.Completed, rep.Requests, rep.Errors)
	}
	if dropped != 0 && !*allowDrops {
		log.Fatalf("FAIL: %d stream events dropped (use -allow-drops to tolerate)", dropped)
	}
}

// parseMix parses "Q1:0.5,Q2:0.3" into loadgen classes sharing the given
// token distributions. Q3 maps to low priority, matching Table 3's batch
// tier.
func parseMix(mix string, prompt, decode workload.TokenDist) ([]loadgen.Class, error) {
	var classes []loadgen.Class
	for _, part := range strings.Split(mix, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name:weight)", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad mix weight %q", weight)
		}
		prio := qos.High
		if name == "Q3" {
			prio = qos.Low
		}
		classes = append(classes, loadgen.Class{
			Name: name, Weight: w, Priority: prio, Prompt: prompt, Decode: decode,
		})
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("empty class mix")
	}
	return classes, nil
}
