package dtm

import (
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

func drpmLevels() []units.RPM { return []units.RPM{15020, 18000, 21000, 24534} }

func TestDRPMConfigErrors(t *testing.T) {
	if _, err := (&DRPM{}).Run(nil); err == nil {
		t.Error("empty DRPM should be rejected")
	}
	disk, th := buildDTMDisk(t, 24534)
	one := DRPM{Disk: disk, Thermal: th, Levels: []units.RPM{24534}}
	if _, err := one.Run(nil); err == nil {
		t.Error("single level should be rejected")
	}
	off := DRPM{Disk: disk, Thermal: th, Levels: []units.RPM{10000, 20000}}
	if _, err := off.Run(nil); err == nil {
		t.Error("disk speed outside the level set should be rejected")
	}
}

func TestDRPMStaysAtTopWhenCool(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	disk, th := buildDTMDisk(t, 24534)
	p := DRPM{Disk: disk, Thermal: th, Levels: drpmLevels()}
	// A light stream: never near the envelope, so the disk holds the top
	// level throughout.
	reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 3000, 40)
	res, err := p.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions != 0 {
		t.Errorf("cool run should not change levels; %d transitions", res.Transitions)
	}
	if res.TimeAtLevel[24534] == 0 {
		t.Error("no time recorded at the top level")
	}
}

func TestDRPMStepsDownUnderSustainedHeat(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	disk, th := buildDTMDisk(t, 24534)
	warm := th.SteadyState(thermal.Load{RPM: 24534, VCMDuty: 0.62, Ambient: thermal.DefaultAmbient})
	p := DRPM{Disk: disk, Thermal: th, Levels: drpmLevels(), Initial: &warm}
	// Sustained heavy seeking from a near-envelope start: the ladder must
	// step down, and the envelope must hold.
	reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 30000, 150)
	res, err := p.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions == 0 {
		t.Error("sustained heat should force level changes")
	}
	if float64(res.MaxAirTemp) > float64(thermal.Envelope)+0.2 {
		t.Errorf("DRPM let the drive reach %.2f C", float64(res.MaxAirTemp))
	}
	lower := res.TimeAtLevel[15020] + res.TimeAtLevel[18000] + res.TimeAtLevel[21000]
	if lower == 0 {
		t.Error("no time spent at reduced levels")
	}
}

func TestDRPMBeatsFixedLowSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	// A bursty but mostly-light stream: DRPM should serve it faster than a
	// drive pinned at the envelope-design bottom level.
	reqs := dtmWorkload(t, 1<<24, 6000, 60)

	fast, th := buildDTMDisk(t, 24534)
	p := DRPM{Disk: fast, Thermal: th, Levels: drpmLevels()}
	// Restrict to the drive's real address space.
	for i := range reqs {
		reqs[i].LBN %= fast.Layout().TotalSectors() - 64
	}
	res, err := p.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	slow, _ := buildDTMDisk(t, 15020)
	comps, err := slow.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, c := range comps {
		sum += c.Response()
	}
	slowMean := float64(sum) / float64(len(comps)) / float64(time.Millisecond)
	if res.MeanResponseMillis >= slowMean {
		t.Errorf("DRPM (%.2f ms) not faster than fixed low speed (%.2f ms)",
			res.MeanResponseMillis, slowMean)
	}
}

// TestDRPMElapsedFromFirstArrival checks DRPM's Elapsed against the
// documented meaning every other controller reports: last completion minus
// first arrival, not the absolute finish time of the last request.
func TestDRPMElapsedFromFirstArrival(t *testing.T) {
	disk, th := buildDTMDisk(t, 24534)
	reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 200, 40)
	for i := range reqs {
		reqs[i].Arrival += 10 * time.Second // a first inter-arrival gap the span must not include
	}
	var collect sim.Appender[disksim.Completion]
	p := DRPM{Disk: disk, Thermal: th, Levels: drpmLevels()}
	res, err := p.RunStream(sim.NewEngine(), sim.FromSlice(reqs), &collect)
	if err != nil {
		t.Fatal(err)
	}
	last := collect.Items[len(collect.Items)-1]
	if want := last.Finish - reqs[0].Arrival; res.Elapsed != want {
		t.Errorf("Elapsed %v, want last finish minus first arrival %v", res.Elapsed, want)
	}

	disk2, _ := buildDTMDisk(t, 24534)
	ctl := Controller{Disk: disk2, Thermal: th}
	cres, err := ctl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Elapsed != res.Elapsed {
		t.Errorf("DRPM Elapsed %v differs from the watermark controller's %v on a cool run", res.Elapsed, cres.Elapsed)
	}
}
