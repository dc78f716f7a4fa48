package experiments

import (
	"qoserve/internal/autoscale"
	"qoserve/internal/cluster"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/request"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func init() {
	register("autoscale", "Extension — fixed fleet vs reactive autoscaling under the diurnal workload", runAutoscale)
}

// runAutoscale runs the §4.3 diurnal workload against three deployments:
// a fixed fleet sized for the peak, a fixed fleet sized for the mean, and
// a reactive autoscaler bounded by the same extremes. It reports the
// GPU-hours each consumed against the violations each incurred — the
// provisioning trade QoServe's co-scheduling shrinks but does not remove.
func runAutoscale(e *Env) error {
	mc := model.Llama3_8B_A100_TP1()
	ref, err := e.refCapacity("auto-ref", mc, e.QoServe(mc), workload.AzureCode, standardTiers(), e.Seed+24)
	if err != nil {
		return err
	}
	// Fleet sizes: peak load / per-replica capacity, and mean load.
	peakQPS, meanQPS := 1.82*ref*3, (0.73+1.82)/2*ref*3 // 3-replica scale diurnal
	peakN := int(peakQPS/ref) + 1
	meanN := int(meanQPS/ref) + 1
	if meanN >= peakN {
		meanN = peakN - 1
	}
	if meanN < 1 {
		meanN = 1
	}

	trace, err := e.diurnalTraceScaled(e.Seed+24, 0.73*ref*3, 1.82*ref*3)
	if err != nil {
		return err
	}
	horizon := cluster.Horizon(trace)
	runSpan := horizon.Seconds()

	e.printf("Per-replica QoServe capacity %.2f QPS; diurnal %.2f<->%.2f QPS\n\n",
		ref, 0.73*ref*3, 1.82*ref*3)
	e.printf("%-28s%14s%14s%16s\n", "Deployment", "Viol(%)", "GPU-hours", "Scale events")

	// Fixed fleets.
	for _, fixed := range []struct {
		label string
		n     int
	}{
		{"Fixed @ peak", peakN},
		{"Fixed @ mean", meanN},
	} {
		tr := workload.Clone(trace)
		sum, err := RunJudged(mc, fixed.n, e.QoServe(mc), tr)
		if err != nil {
			return err
		}
		gpuHours := float64(fixed.n*mc.GPUs()) * runSpan / 3600
		e.printf("%-28s%14.2f%14.1f%16s\n", fixed.label,
			100*sum.ViolationRate(metrics.All), gpuHours, "-")
	}

	// Autoscaled fleet.
	tr := workload.Clone(trace)
	engine := sim.NewEngine()
	fleet, err := autoscale.NewFleet(engine, autoscale.Config{
		Model:       mc,
		Factory:     e.QoServe(mc),
		MinReplicas: meanN,
		MaxReplicas: peakN,
		Interval:    e.Duration() / 48, // several decisions per diurnal phase
	})
	if err != nil {
		return err
	}
	sim.Feed(engine, tr, (*request.Request).ArrivalTime, fleet.Submit)
	last := tr[len(tr)-1].Arrival
	engine.At(last+sim.Second, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) { fleet.Stop() }))
	end := engine.RunUntil(horizon)
	sum := metrics.NewSummary(tr, end, 1)
	ups, downs := fleet.ScaleEvents()
	e.printf("%-28s%14.2f%14.1f%13d+%d\n", "Autoscaled",
		100*sum.ViolationRate(metrics.All), fleet.GPUSeconds()/3600, ups, downs)
	return nil
}
