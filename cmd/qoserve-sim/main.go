// Command qoserve-sim runs one serving simulation from the command line:
// synthesize (or load) a workload, serve it with a chosen policy and
// deployment, and print per-tier results. It also writes synthesized traces
// for replay (-write-trace) and runs the capacity searches behind the
// paper's provisioning results (-capacity).
//
// Examples:
//
//	qoserve-sim -dataset Azure-Code -qps 3 -duration 10m -policy qoserve
//	qoserve-sim -dataset ShareGPT -qps 2 -duration 5m -policy sarathi-edf -replicas 2
//	qoserve-sim -qps 3 -duration 10m -write-trace trace.jsonl
//	qoserve-sim -trace trace.jsonl -policy qoserve
//	qoserve-sim -qps 2 -burst-qps 5 -burst-period 2m -duration 20m -low-priority 0.2
//	qoserve-sim -replicas 4 -fail "crash@2m:1,restart@4m:1"
//	qoserve-sim -replicas 4 -fail-mtbf 5m -fail-mttr 1m -fail-seed 7
//	qoserve-sim -capacity goodput -policy sarathi-edf   # Fig. 7's metric
//	qoserve-sim -capacity replicas -qps 35              # Table 4's metric
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"qoserve"
	"qoserve/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qoserve-sim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args and performs the one action they select: write a trace,
// search capacity, or serve a workload and report on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qoserve-sim", flag.ContinueOnError)
	var (
		datasetName = fs.String("dataset", "Azure-Code", "workload dataset: ShareGPT, Azure-Conv, Azure-Code")
		qps         = fs.Float64("qps", 3, "mean arrival rate (requests/second); the fixed load of -capacity replicas")
		burstQPS    = fs.Float64("burst-qps", 0, "peak rate for a square-wave bursty workload (0 = steady)")
		burstPeriod = fs.Duration("burst-period", 2*time.Minute, "half-period of the bursty square wave")
		duration    = fs.Duration("duration", 10*time.Minute, "trace duration (each capacity probe's, with -capacity)")
		lowPrio     = fs.Float64("low-priority", 0, "fraction of requests tagged free-tier")
		seed        = fs.Int64("seed", 1, "workload seed")
		policyName  = fs.String("policy", "qoserve", strings.Join(cluster.Policies, " | "))
		hardware    = fs.String("hardware", "llama3-8b", "llama3-8b | qwen-7b | llama3-70b")
		replicas    = fs.Int("replicas", 1, "shared-cluster replica count; with -capacity replicas, the search's upper bound (32 when unset)")
		chunk       = fs.Int("chunk", 0, "fixed chunk for Sarathi policies (default 256)")
		alpha       = fs.Duration("alpha", 0, "QoServe hybrid alpha per token (0 = paper default, adaptive)")
		tracePath   = fs.String("trace", "", "serve a JSON-lines trace file instead of synthesizing")
		outPath     = fs.String("out", "", "write per-request outcomes as CSV to this path")
		writeTrace  = fs.String("write-trace", "", "write the synthesized trace as JSON lines to this path ('-' = stdout) and exit")
		capacity    = fs.String("capacity", "", "search capacity within 1% violations instead of serving: goodput (max QPS per replica) | replicas (min replicas for -qps)")

		failSpec    = fs.String("fail", "", `explicit fault schedule, e.g. "crash@30s:1,restart@1m30s:1,slow@10s:2x3"`)
		failMTBF    = fs.Duration("fail-mtbf", 0, "mean time between replica failures for a seeded random schedule (0 = no random faults)")
		failMTTR    = fs.Duration("fail-mttr", 0, "mean time to recovery for random faults (0 = crashed replicas stay down)")
		failSeed    = fs.Int64("fail-seed", 1, "fault schedule seed")
		failRetries = fs.Int("fail-retries", 0, "max re-enqueues per crashed request (0 = default 3)")
		failBackoff = fs.Duration("fail-backoff", 0, "delay before first re-enqueue, doubling per retry (0 = default 50ms)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	// -write-trace and -capacity each replace the serving run, so the
	// flags that only shape a served run do not combine with them.
	mode := ""
	switch {
	case *writeTrace != "" && *capacity != "":
		return errors.New("-write-trace and -capacity do not combine")
	case *writeTrace != "":
		mode = "-write-trace"
	case *capacity != "":
		mode = "-capacity"
		if *capacity != "goodput" && *capacity != "replicas" {
			return fmt.Errorf("-capacity %q: want goodput or replicas", *capacity)
		}
	}
	// Goodput is per replica, so its probes always run one and -replicas
	// does not combine with it either.
	replicasSet := false
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		replicasSet = replicasSet || f.Name == "replicas"
		servedOnly := f.Name == "trace" || f.Name == "out" || strings.HasPrefix(f.Name, "fail")
		steadyOnly := mode == "-capacity" && strings.HasPrefix(f.Name, "burst")
		perReplica := *capacity == "goodput" && f.Name == "replicas"
		if mode != "" && conflict == nil && (servedOnly || steadyOnly || perReplica) {
			conflict = fmt.Errorf("%s does not combine with -%s", mode, f.Name)
		}
	})
	if conflict != nil {
		return conflict
	}

	var hw qoserve.Hardware
	switch *hardware {
	case "llama3-8b":
		hw = qoserve.Llama3_8B_A100
	case "qwen-7b":
		hw = qoserve.Qwen_7B_2xA100
	case "llama3-70b":
		hw = qoserve.Llama3_70B_4xH100
	default:
		return fmt.Errorf("unknown hardware %q", *hardware)
	}
	var ds qoserve.Dataset
	switch *datasetName {
	case "ShareGPT":
		ds = qoserve.DatasetShareGPT
	case "Azure-Conv":
		ds = qoserve.DatasetAzureConv
	case "Azure-Code":
		ds = qoserve.DatasetAzureCode
	default:
		return fmt.Errorf("unknown dataset %q", *datasetName)
	}
	spec := qoserve.WorkloadSpec{
		Dataset:             ds,
		QPS:                 *qps,
		Duration:            *duration,
		LowPriorityFraction: *lowPrio,
		Seed:                *seed,
	}
	if *burstQPS > 0 {
		spec.BurstQPS = *burstQPS
		spec.BurstPeriod = *burstPeriod
	}
	opts := qoserve.Options{
		Hardware: hw,
		Policy:   qoserve.Policy(*policyName),
		Replicas: *replicas,
		Chunk:    *chunk,
		QoServe: qoserve.QoServeTuning{
			Alpha:                *alpha,
			DisableAdaptiveAlpha: *alpha > 0,
		},
		Faults: qoserve.FaultPlan{
			Schedule:     *failSpec,
			MTBF:         *failMTBF,
			MTTR:         *failMTTR,
			Seed:         *failSeed,
			MaxRetries:   *failRetries,
			RetryBackoff: *failBackoff,
		},
	}

	if *capacity != "" {
		copts := qoserve.CapacityOptions{ProbeDuration: *duration, Seed: *seed}
		prefix := fmt.Sprintf("policy=%s hardware=%s dataset=%s", *policyName, hw, ds)
		if *capacity == "goodput" {
			rate, err := qoserve.FindMaxGoodput(opts, spec, copts)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(stdout, "%s goodput=%.2f req/s/replica\n", prefix, rate)
			return err
		}
		bound := 0 // FindMinReplicas's default bound, 32
		if replicasSet {
			bound = *replicas
		}
		n, err := qoserve.FindMinReplicas(opts, spec, bound, copts)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s qps=%g replicas=%d\n", prefix, *qps, n)
		return err
	}

	var (
		reqs []qoserve.Request
		err  error
	)
	if *tracePath != "" {
		reqs, err = readTraceFile(*tracePath)
	} else {
		reqs, err = qoserve.GenerateWorkload(spec)
	}
	if err != nil {
		return err
	}
	if *writeTrace != "" {
		if err := writeTraceFile(*writeTrace, stdout, reqs); err != nil {
			return err
		}
		log.Printf("wrote %d requests", len(reqs))
		return nil
	}

	start := time.Now()
	report, err := qoserve.Serve(opts, reqs)
	if err != nil {
		return err
	}

	if *outPath != "" {
		if err := writeOutcomesCSV(*outPath, report); err != nil {
			return err
		}
		log.Printf("wrote %d outcomes to %s", len(report.Outcomes), *outPath)
	}
	fmt.Fprintf(stdout, "policy=%s hardware=%s replicas=%d requests=%d simulated=%v wall=%v\n",
		*policyName, hw, report.Replicas, len(report.Outcomes),
		report.Duration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "violations=%.2f%% relegated=%.2f%% goodput=%.3f req/s/replica\n",
		100*report.ViolationRate, 100*report.RelegationRate, report.Goodput)
	if f := report.Faults; f != nil {
		fmt.Fprintf(stdout, "faults: crashes=%d restarts=%d retries=%d lost_tokens=%d failed=%d\n",
			f.Crashes, f.Restarts, f.Retries, f.LostTokens, f.FailedRequests)
	}
	for _, c := range qoserve.DefaultClasses() {
		if report.ViolationRateOf(c.Name) == 0 && report.TTFTPercentile(c.Name, 0.5) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-3s violations=%.2f%% TTFT p50=%v p99=%v TTLT p99=%v\n",
			c.Name,
			100*report.ViolationRateOf(c.Name),
			report.TTFTPercentile(c.Name, 0.5).Round(time.Millisecond),
			report.TTFTPercentile(c.Name, 0.99).Round(time.Millisecond),
			report.TTLTPercentile(c.Name, 0.99).Round(time.Millisecond))
	}
	return nil
}

// writeTraceFile writes reqs as a JSON-lines trace to path ('-' = stdout).
func writeTraceFile(path string, stdout io.Writer, reqs []qoserve.Request) error {
	if path == "-" {
		return qoserve.WriteTrace(stdout, reqs)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := qoserve.WriteTrace(f, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTraceFile reads a JSON-lines trace written by -write-trace.
func readTraceFile(path string) ([]qoserve.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return qoserve.ReadTrace(f)
}

// writeOutcomesCSV dumps per-request outcomes for external analysis.
func writeOutcomesCSV(path string, report *qoserve.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"id", "class", "priority", "completed", "violated", "relegated",
		"ttft_ms", "ttlt_ms", "max_tbt_ms", "retries", "fail_reason",
	}); err != nil {
		return err
	}
	for _, o := range report.Outcomes {
		prio := "high"
		if o.Priority == qoserve.Low {
			prio = "low"
		}
		rec := []string{
			strconv.FormatUint(o.ID, 10),
			o.Class,
			prio,
			strconv.FormatBool(o.Completed),
			strconv.FormatBool(o.Violated),
			strconv.FormatBool(o.Relegated),
			strconv.FormatFloat(float64(o.TTFT)/1e6, 'f', 3, 64),
			strconv.FormatFloat(float64(o.TTLT)/1e6, 'f', 3, 64),
			strconv.FormatFloat(float64(o.MaxTBT)/1e6, 'f', 3, 64),
			strconv.Itoa(o.Retries),
			o.FailReason,
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
