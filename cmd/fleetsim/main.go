// Command fleetsim runs one fleet-scale thermal simulation from the command
// line and streams the result as NDJSON: one "rack" line per rack as its
// chassis shards complete, then a single "summary" line. The flags become a
// simd fleet job spec, which runs through server.RunSpec — the code the
// daemon's fleet job runs — so the output is the simd job body by
// construction, and a spec simd would refuse is refused here with the same
// message. Output is byte-identical at every -workers value (the fleet
// determinism contract), which is what lets CI pin a cooling-failure run
// as a golden artifact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		racks    = flag.Int("racks", 4, "racks in the room")
		chassis  = flag.Int("chassis", 4, "chassis per rack")
		slots    = flag.Int("slots", 8, "drive slots per chassis")
		requests = flag.Int("requests", 40, "requests per drive stream")
		seed     = flag.Int64("seed", 1, "fleet workload seed")
		airflow  = flag.Float64("airflow", 30, "per-chassis airflow in CFM")
		recirc   = flag.Float64("recirc", 0, "rack exhaust recirculation fraction [0,1)")
		place    = flag.String("placement", "static", "stream placement: static or coolest")
		migrate  = flag.Float64("migrate-at", 0, "migration threshold in C (0 = off)")
		hyst     = flag.Float64("hysteresis", 0, "migration hysteresis in C (0 = 2)")
		workers  = flag.Int("workers", 0, "chassis-shard fan-out (0 = all cores)")

		failRack  = flag.Int("fail-rack", 0, "cooling-failure rack (-1 = room-wide)")
		failAt    = flag.Duration("fail-at", 0, "cooling-failure onset on the sim clock")
		failFor   = flag.Duration("fail-for", 0, "cooling-failure duration (0 = no failure)")
		failDelta = flag.Float64("fail-delta", 0, "cooling-failure inlet rise in C")
	)
	flag.Parse()

	spec := server.Spec{Type: server.TypeFleet, Workers: *workers, Fleet: &server.FleetSpec{
		Racks:            *racks,
		ChassisPerRack:   *chassis,
		SlotsPerChassis:  *slots,
		RequestsPerDrive: *requests,
		Seed:             *seed,
		Placement:        *place,
		MigrateAtC:       *migrate,
		HysteresisC:      *hyst,
		AirflowCFM:       *airflow,
		Recirculation:    *recirc,
	}}
	if *workers == 0 {
		spec.Workers = min(runtime.GOMAXPROCS(0), 32) // the job's fan-out cap
	}
	atMS, err := server.WholeMS("fail-at", *failAt)
	check(err)
	forMS, err := server.WholeMS("fail-for", *failFor)
	check(err)
	if forMS > 0 {
		spec.Fleet.CoolingFailure = &server.CoolingFailureSpec{Rack: *failRack, AtMS: atMS, DurationMS: forMS, DeltaC: *failDelta}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	check(server.RunSpec(ctx, spec, os.Stdout))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}
