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
// instead of recomputing them:
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
	"strings"
	"time"

	"qoserve/cmd/internal/serving"
	"qoserve/internal/cluster"
	"qoserve/internal/kvcache"
	"qoserve/internal/qos"
	"qoserve/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qoserved: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		hardware   = flag.String("hardware", "llama3-8b", "llama3-8b | qwen-7b | llama3-70b")
		policyName = flag.String("policy", "qoserve", strings.Join(serving.Policies, " | "))
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
		kvXferGbps = flag.Float64("kv-transfer-gbps", 0, "cross-replica KV migration interconnect (GB/s); 0 recomputes missed prefixes instead")
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

	cfg := server.Config{
		Model:               mc,
		SchedulerFactory:    stack.SchedulerFactory,
		Replicas:            *replicas,
		Balancer:            stack.Balancer,
		KV:                  kvcache.Config{DRAMTokens: *kvDRAM},
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
