// Command qoserved runs the real-time QoServe serving daemon: an HTTP
// service that schedules declared-shape requests with the QoServe (or a
// baseline) scheduler and streams token events as they are "generated" by
// the calibrated cost model. It is a QoS-policy load-testing harness — the
// serving-system shape of the paper without GPUs.
//
//	qoserved -addr :8080 -policy qoserve -timescale 10
//
// With -mode disagg the replicas split into a prefill tier and a decode
// tier joined by a modeled KV-transfer interconnect; -balancer predicted
// routes each request to the replica with the lowest forest-predicted
// completion latency:
//
//	qoserved -mode disagg -replicas 4 -prefill-replicas 2 -balancer predicted
//
// With -kv-transfer-gbps set, a replica that misses a prefix cached on
// another replica imports the KV blocks over a modeled interconnect
// instead of recomputing them; -prefix-global (default on) backs routing
// probes with a lock-free global prefix index instead of per-replica
// cache locks:
//
//	qoserved -replicas 4 -balancer predicted -kv-transfer-gbps 64
//
//	curl -s localhost:8080/v1/classes
//	curl -s -X POST localhost:8080/v1/generate \
//	     -d '{"class":"Q1","prompt_tokens":1500,"decode_tokens":20}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/debug/trace?n=20
//	curl -s localhost:8080/debug/queues
//
// See docs/OPERATIONS.md for the full endpoint and metric reference.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/kvcache"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/profile"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qoserved: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		hardware   = flag.String("hardware", "llama3-8b", "llama3-8b | qwen-7b | llama3-70b")
		policyName = flag.String("policy", "qoserve", "qoserve | sarathi-fcfs | sarathi-edf | sarathi-srpf | vllm | medha")
		timescale  = flag.Float64("timescale", 1, "virtual-time acceleration factor")
		chunk      = flag.Int("chunk", 256, "fixed chunk for Sarathi policies")
		traceDepth = flag.Int("trace", 1024, "iterations retained for /debug/trace (0 disables tracing)")
		window     = flag.Duration("metrics-window", time.Minute, "virtual-time window for rolling per-class /metrics gauges")
		replicas   = flag.Int("replicas", 1, "independent scheduler replicas (serving loops)")
		mode       = flag.String("mode", "colocated", "colocated | disagg (split replicas into prefill and decode tiers)")
		prefillN   = flag.Int("prefill-replicas", 0, "disagg prefill-tier size; 0 means (replicas+1)/2")
		decodeCap  = flag.Int("decode-batch", 0, "disagg decode-tier batch cap; 0 derives it from the strictest TBT SLO")
		xferGbps   = flag.Float64("transfer-gbps", 0, "disagg prefill->decode KV interconnect (GB/s); 0 means 64 (NVLink-class)")
		balancer   = flag.String("balancer", "round-robin", "replica routing: round-robin | least-loaded | prefix | predicted")
		streamBuf  = flag.Int("stream-buffer", 256, "per-stream event buffer (events); slow consumers drop overflow")
		prefixMin  = flag.Int("prefix-min-match", cluster.DefaultMinMatchTokens, "smallest cached-prefix match (tokens) the prefix balancer chases")
		kvDRAM     = flag.Int("kv-dram-tokens", 0, "DRAM spill tier per replica (tokens); 0 evicts demoted prefix blocks outright")
		prefixIdx  = flag.Bool("prefix-global", true, "publish prefix-cache membership into a lock-free global index for routing probes")
		kvXferGbps = flag.Float64("kv-transfer-gbps", 0, "cross-replica KV migration interconnect (GB/s); 0 recomputes missed prefixes instead")
	)
	flag.Parse()

	var mc model.Config
	switch *hardware {
	case "llama3-8b":
		mc = model.Llama3_8B_A100_TP1()
	case "qwen-7b":
		mc = model.Qwen_7B_A100_TP2()
	case "llama3-70b":
		mc = model.Llama3_70B_H100_TP4()
	default:
		log.Fatalf("unknown hardware %q", *hardware)
	}

	// Memoized: the qoserve/medha policies and the predicted balancer all
	// want the same read-only forest, and profiling + training is the
	// expensive part of startup.
	var trained *predictor.Forest
	trainPredictor := func() *predictor.Forest {
		if trained != nil {
			return trained
		}
		log.Printf("profiling %s and training the latency predictor ...", mc.Name())
		samples, err := profile.Collect(mc, profile.Config{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		trained, err = predictor.Train(samples, predictor.ForestConfig{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		return trained
	}

	// Each replica needs its own scheduler (policy state must not be
	// shared), but the trained forest is read-only at predict time, so the
	// expensive profiling + training happens once and all replicas share
	// the predictor.
	var factory func() sched.Scheduler
	switch *policyName {
	case "qoserve":
		forest := trainPredictor()
		factory = func() sched.Scheduler { return core.New(forest, core.DefaultOptions()) }
	case "sarathi-fcfs":
		factory = func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, *chunk) }
	case "sarathi-edf":
		factory = func() sched.Scheduler { return sched.NewSarathi(sched.EDF, *chunk) }
	case "sarathi-srpf":
		factory = func() sched.Scheduler { return sched.NewSarathi(sched.SRPF, *chunk) }
	case "vllm":
		factory = func() sched.Scheduler { return sched.NewVLLM(0) }
	case "medha":
		forest := trainPredictor()
		factory = func() sched.Scheduler { return sched.NewMedha(forest, 50*sim.Millisecond, 0) }
	default:
		log.Fatalf("unknown policy %q", *policyName)
	}

	var lb cluster.GatewayBalancer
	switch *balancer {
	case "round-robin":
		lb = &cluster.AtomicRoundRobin{}
	case "least-loaded":
		lb = cluster.LeastLoaded{}
	case "prefix":
		lb = &cluster.PrefixAffinity{MinMatchTokens: *prefixMin}
	case "predicted":
		pl := &cluster.PredictedLatency{Predictor: trainPredictor()}
		if *kvXferGbps > 0 {
			pl.Transfer = &cluster.TransferModel{
				BytesPerToken: mc.Model.KVBytesPerToken(),
				BandwidthBps:  *kvXferGbps * 1e9,
				MinTokens:     *prefixMin,
			}
		}
		lb = pl
	default:
		log.Fatalf("unknown balancer %q", *balancer)
	}

	cfg := server.Config{
		Model:               mc,
		SchedulerFactory:    factory,
		Replicas:            *replicas,
		Balancer:            lb,
		KV:                  kvcache.Config{DRAMTokens: *kvDRAM},
		GlobalPrefixIndex:   *prefixIdx,
		KVTransferBandwidth: *kvXferGbps * 1e9,
		StreamBuffer:        *streamBuf,
		Classes:             qos.Table3(),
		Timescale:           *timescale,
		TraceDepth:          *traceDepth,
		MetricsWindow:       *window,
		Mode:                *mode,
	}
	if *mode == "disagg" {
		cfg.PrefillReplicas = *prefillN
		cfg.MaxDecodeBatch = *decodeCap
		cfg.TransferBandwidth = *xferGbps * 1e9
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	tiers := ""
	if *mode == "disagg" {
		tiers = fmt.Sprintf(" (disagg: %d prefill + %d decode)", srv.PrefillReplicas(), *replicas-srv.PrefillReplicas())
	}
	log.Printf("serving %s with %s x%d replicas%s at %gx time on %s", mc.Name(), *policyName, *replicas, tiers, *timescale, *addr)
	if err := httpSrv.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}
