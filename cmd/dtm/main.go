// Command dtm runs the paper's Dynamic Thermal Management experiments:
// the thermal-slack analysis (Figure 5), the throttling-ratio sweeps
// (Figure 7), and the closed-loop policy controllers the paper sketches as
// future work.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/obs"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

func main() {
	var (
		slack     = flag.Bool("slack", true, "print the Figure 5 thermal-slack analysis")
		throttle  = flag.Bool("throttle", true, "print the Figure 7 throttling sweeps")
		policy    = flag.Bool("policy", false, "run the closed-loop DTM policy comparison")
		emergency = flag.Bool("emergency", false, "run the thermal-emergency escalation ladder demo")
		faults    = flag.Bool("faults", false, "inject thermal off-track faults during the emergency run")
		faultseed = flag.Int64("faultseed", 1, "seed for the fault injector (runs are reproducible per seed)")
		failscale = flag.Float64("failscale", 1, "time acceleration for the disk-failure hazard (1 = physical rate)")
		requests  = flag.Int("requests", 30000, "requests for the policy and emergency runs")
	)
	var oc obs.CLI
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()
	oc.Enable()
	// An interrupted run still flushes -metrics-out/-trace-out before
	// exiting with the conventional 128+signal status.
	stopFlush := oc.FlushOnInterrupt()
	err := run(*slack, *throttle, *policy, *emergency, *faults, *faultseed, *failscale, *requests, &oc)
	stopFlush() // uninstall before the normal flush so the writers cannot race
	if err == nil {
		err = oc.Flush()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtm:", err)
		os.Exit(1)
	}
}

func run(slack, throttle, policy, emergency, faults bool, faultseed int64, failscale float64, requests int, oc *obs.CLI) error {
	if (policy || emergency) && requests < 1 {
		return fmt.Errorf("-requests %d: want at least 1", requests) // 0 would mean the scenario's default
	}
	if slack {
		if err := runSlack(); err != nil {
			return err
		}
	}
	if throttle {
		if err := runThrottle(); err != nil {
			return err
		}
	}
	if policy {
		if err := runPolicy(requests, oc); err != nil {
			return err
		}
	}
	if emergency {
		if err := runEmergency(requests, faults, faultseed, failscale, oc); err != nil {
			return err
		}
	}
	return nil
}

// runScenario runs one policy of the reference DTM scenario with the
// -metrics-out registry and a -trace-out tracer attached (nil tracer = the
// free path). The runs are sequential, so sharing one tracer across their
// engines still records spans in a deterministic order.
func runScenario(r dtm.PolicyRun, oc *obs.CLI) (dtm.PolicySummary, error) {
	r.Registry = oc.Registry
	e := sim.NewEngine()
	e.SetTracer(oc.Tracer)
	return r.Run(context.Background(), e, nil)
}

func runSlack() error {
	pts, err := dtm.Slack(nil, 1, thermal.DefaultAmbient)
	if err != nil {
		return err
	}
	fmt.Println("Figure 5(a): envelope-design vs VCM-off maximum RPM (1 platter)")
	for _, p := range pts {
		fmt.Printf("  %v: %7.0f RPM (VCM on) -> %7.0f RPM (VCM off): slack %6.0f RPM (VCM %.3f W)\n",
			p.Size, float64(p.EnvelopeRPM), float64(p.VCMOffRPM),
			float64(p.SlackRPM()), float64(p.VCMPower))
	}

	fmt.Println("\nFigure 5(b): revised IDR roadmap when the slack is exploited (2.6\")")
	on, err := scaling.Roadmap(scaling.Config{PlatterSizes: []units.Inches{2.6}})
	if err != nil {
		return err
	}
	off, err := scaling.Roadmap(scaling.Config{PlatterSizes: []units.Inches{2.6}, VCMOff: true})
	if err != nil {
		return err
	}
	onIdx, offIdx := scaling.ByYearSize(on), scaling.ByYearSize(off)
	fmt.Printf("%4s %10s %14s %14s\n", "Year", "target", "envelope IDR", "VCM-off IDR")
	for y := 2002; y <= 2012; y++ {
		fmt.Printf("%4d %10.1f %14.1f %14.1f\n",
			y, float64(scaling.TargetIDR(y)),
			float64(onIdx[y][2.6].MaxIDR), float64(offIdx[y][2.6].MaxIDR))
	}
	fmt.Println()
	return nil
}

func runThrottle() error {
	cases := []struct {
		name string
		e    dtm.ThrottleExperiment
	}{
		{"Figure 7(a): VCM-only throttling, 2.6\" at 24,534 RPM", dtm.Figure7a()},
		{"Figure 7(b): VCM+RPM throttling, 37,001 -> 22,001 RPM", dtm.Figure7b()},
	}
	for _, c := range cases {
		fmt.Println(c.name)
		sweep, err := c.e.Sweep(dtm.DefaultTCools())
		if err != nil {
			return err
		}
		fmt.Printf("  %8s %10s %8s\n", "t_cool", "t_heat", "ratio")
		for _, p := range sweep {
			fmt.Printf("  %8v %10v %8.3f\n", p.TCool, p.THeat.Round(10*time.Millisecond), p.Ratio)
		}
		fmt.Println()
	}
	return nil
}

func runPolicy(requests int, oc *obs.CLI) error {
	fmt.Printf("Closed-loop DTM policy comparison (2005 drive, %d random requests at 120/s)\n", requests)

	// Envelope design: 15,020 RPM, no DTM needed.
	env, err := runScenario(dtm.PolicyRun{Policy: "envelope", Requests: requests}, oc)
	if err != nil {
		return err
	}
	fmt.Printf("  envelope design @15,020 RPM: mean %.2f ms\n", env.MeanMS)

	// Average-case design at the 2005 target speed with watermark throttling.
	res, err := runScenario(dtm.PolicyRun{Policy: "watermark", Requests: requests}, oc)
	if err != nil {
		return err
	}
	fmt.Printf("  average-case @24,534 RPM + throttling: mean %.2f ms, max air %.2f C, "+
		"%d throttle events (%.1fs paused)\n",
		res.MeanMS, res.MaxAirTempC, res.ThrottleEvents, res.ThrottledSimMS/1000)

	// Two-speed slack ramping from the envelope-design base.
	rres, err := runScenario(dtm.PolicyRun{Policy: "slack-ramp", Requests: requests}, oc)
	if err != nil {
		return err
	}
	fmt.Printf("  two-speed slack ramp 15,020<->24,534: mean %.2f ms, max air %.2f C, "+
		"%d transitions (%.1fs boosted)\n",
		rres.MeanMS, rres.MaxAirTempC, rres.Transitions, rres.BoostedSimMS/1000)

	// DRPM-style multi-level control.
	dres, err := runScenario(dtm.PolicyRun{Policy: "drpm", Requests: requests}, oc)
	if err != nil {
		return err
	}
	fmt.Printf("  DRPM 4 levels 15,020..24,534: mean %.2f ms, max air %.2f C, %d transitions\n",
		dres.MeanMS, dres.MaxAirTempC, dres.Transitions)

	// Mirrored pair with thermally-steered reads (section 5.4). The mirror
	// policy steers between two members and keeps its batch API, so it
	// builds its own pair of reference drives and collects the workload.
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		return err
	}
	var mdisks [2]*disksim.Disk
	var mtherm [2]*thermal.Model
	for i := range mdisks {
		d, err := disksim.New(disksim.Config{Layout: layout, RPM: dtm.AverageCaseRPM})
		if err != nil {
			return err
		}
		th, err := thermal.New(geom)
		if err != nil {
			return err
		}
		mdisks[i], mtherm[i] = d, th
	}
	mirror := dtm.MirrorPolicy{Disks: mdisks, Thermal: mtherm}
	mres, err := mirror.Run(sim.Collect(dtm.SyntheticSource(layout.TotalSectors(), requests, 120, 11)))
	if err != nil {
		return err
	}
	fmt.Printf("  RAID-1 steered pair @24,534: mean %.2f ms, max member air %.2f C, %d role switches\n",
		mres.MeanResponseMillis, float64(mres.MaxAirTemp), mres.Switches)
	return nil
}

// runEmergency demonstrates the three-stage thermal-emergency ladder: the
// 2005 average-case drive warm-started at its past-envelope worst case, with
// (optionally) the thermal fault injector wired to the same transient so
// off-track retries, sector remaps, and the failure hazard all track the
// temperature the ladder is regulating.
func runEmergency(requests int, faults bool, seed int64, failscale float64, oc *obs.CLI) error {
	run := dtm.PolicyRun{Policy: "escalation", Requests: requests}
	if faults {
		inj := dtm.NewThermalFaults(dtm.OffTrackModel{}, reliability.Default(), nil, seed)
		inj.TimeAcceleration = failscale
		run.Faults = inj
	}
	res, err := runScenario(run, oc)
	if err != nil {
		return err
	}
	fmt.Printf("Thermal-emergency escalation ladder (2005 drive @24,534 RPM, hot start, %d requests)\n", requests)
	fmt.Printf("  served %d/%d: mean %.2f ms, p95 %.2f ms, max air %.2f C\n",
		res.Served, requests, res.MeanMS, res.P95MS, res.MaxAirTempC)
	fmt.Printf("  stage engagements: %d RPM step-downs, %d throttles (%.1fs), %d offlines (%.1fs)\n",
		res.StepDowns, res.ThrottleEvents, res.ThrottledSimMS/1000, res.Offlines, res.OfflineSimMS/1000)
	if faults {
		fmt.Printf("  injected faults (seed %d, %gx hazard): %d off-track retries, %d sector remaps\n",
			seed, failscale, res.Retries, res.Remaps)
		if res.DiskFailed {
			fmt.Printf("  disk FAILED at %v\n", res.FailedAt)
		}
	}
	fmt.Println()
	return nil
}
