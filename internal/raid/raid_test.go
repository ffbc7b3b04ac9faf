package raid

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/geometry"
	"repro/internal/units"
)

func testLayout(t *testing.T) *capacity.Layout {
	t.Helper()
	l, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 1, FormFactor: geometry.FormFactor35},
		BPI:      456000,
		TPI:      45000,
		Zones:    30,
	})
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	return l
}

func testDisks(t *testing.T, n int, rpm units.RPM) []*disksim.Disk {
	t.Helper()
	layout := testLayout(t)
	out := make([]*disksim.Disk, n)
	for i := range out {
		d, err := disksim.New(disksim.Config{Layout: layout, RPM: rpm})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = d
	}
	return out
}

func testVolume(t *testing.T, level Level, n int) *Volume {
	t.Helper()
	v, err := New(level, testDisks(t, n, 10000), DefaultStripeUnit)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return v
}

func TestNewErrors(t *testing.T) {
	if _, err := New(RAID0, nil, 16); err == nil {
		t.Error("empty disk set should be rejected")
	}
	if _, err := New(RAID5, testDisks(t, 2, 10000), 16); err == nil {
		t.Error("2-disk RAID-5 should be rejected")
	}
	if _, err := New(RAID0, testDisks(t, 2, 10000), -1); err == nil {
		t.Error("negative stripe unit should be rejected")
	}
}

func TestCapacity(t *testing.T) {
	per := testLayout(t).TotalSectors()
	if got := testVolume(t, JBOD, 4).Capacity(); got != 4*per {
		t.Errorf("JBOD capacity = %d, want %d", got, 4*per)
	}
	if got := testVolume(t, RAID0, 4).Capacity(); got != 4*per {
		t.Errorf("RAID0 capacity = %d, want %d", got, 4*per)
	}
	if got := testVolume(t, RAID5, 4).Capacity(); got != 3*per {
		t.Errorf("RAID5 capacity = %d, want %d (one disk of parity)", got, 3*per)
	}
}

func TestLevelString(t *testing.T) {
	if JBOD.String() != "JBOD" || RAID0.String() != "RAID-0" || RAID5.String() != "RAID-5" {
		t.Error("level names wrong")
	}
	if Level(7).String() == "" {
		t.Error("unknown level should print")
	}
}

func TestRAID0MappingSpreadsDisks(t *testing.T) {
	v := testVolume(t, RAID0, 4)
	// Four consecutive stripe units land on four different disks.
	seen := make(map[int]bool)
	for u := int64(0); u < 4; u++ {
		subs, err := v.mapRequest(Request{ID: u, Block: u * v.stripeUnit, Sectors: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(subs) != 1 {
			t.Fatalf("aligned unit fanned out to %d subs", len(subs))
		}
		seen[subs[0].disk] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 consecutive units touched %d disks, want 4", len(seen))
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	v := testVolume(t, RAID5, 4)
	parities := make(map[int]bool)
	dataPerRow := int64(len(v.disks) - 1)
	for row := int64(0); row < 4; row++ {
		_, _, p := v.stripeLoc(row*dataPerRow, true)
		parities[p] = true
	}
	if len(parities) != 4 {
		t.Errorf("parity used %d distinct disks over 4 rows, want 4", len(parities))
	}
}

func TestRAID5ParityNeverHoldsData(t *testing.T) {
	v := testVolume(t, RAID5, 5)
	f := func(raw uint32) bool {
		unit := int64(raw % 100000)
		d, _, p := v.stripeLoc(unit, true)
		return d != p && d >= 0 && d < 5 && p >= 0 && p < 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStripedTailRowStaysOnMembers is the regression for members whose size
// is not a whole number of stripe units. Over the volume's last three rows
// (the final one partial), every block maps to one member sector, no two
// blocks share a sector, RAID-5 data never shares a sector with parity,
// and data plus parity fill those rows of every member exactly. Requests
// ending at the capacity are served, healthy and degraded.
func TestStripedTailRowStaysOnMembers(t *testing.T) {
	for _, level := range []Level{RAID0, RAID5} {
		t.Run(level.String(), func(t *testing.T) {
			v := fuzzVolume(t, level, 4)
			tail := v.perDisk % v.stripeUnit
			if tail == 0 {
				t.Fatal("members are a whole number of stripe units; no partial row to test")
			}
			span := 2*v.stripeUnit + tail // the last three rows, per member
			dataDisks := int64(len(v.disks))
			if level == RAID5 {
				dataDisks--
			}
			first := v.Capacity() - span*dataDisks
			type sector struct {
				disk int
				lbn  int64
			}
			data := make(map[sector]bool)
			parity := make(map[sector]bool)
			for b := first; b < v.Capacity(); b++ {
				subs, err := v.Explode(Request{ID: b, Block: b, Sectors: 1, Write: true})
				if err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				d := sector{subs[0].Disk, subs[0].Request.LBN}
				if d.lbn < v.perDisk-span || d.lbn >= v.perDisk {
					t.Fatalf("block %d maps to LBN %d, outside the last rows [%d,%d)",
						b, d.lbn, v.perDisk-span, v.perDisk)
				}
				if data[d] {
					t.Fatalf("block %d maps to disk %d LBN %d, already holding data", b, d.disk, d.lbn)
				}
				data[d] = true
				if level == RAID5 { // RMW: old data, new data, old parity, new parity
					parity[sector{subs[2].Disk, subs[2].Request.LBN}] = true
				}
			}
			for p := range parity {
				if data[p] {
					t.Fatalf("disk %d LBN %d holds both data and parity", p.disk, p.lbn)
				}
			}
			if got, want := int64(len(data)+len(parity)), span*int64(len(v.disks)); got != want {
				t.Fatalf("data and parity cover %d member sectors of the last rows, want %d", got, want)
			}

			end := Request{ID: 1, Block: v.Capacity() - 40, Sectors: 40, Write: true}
			if _, err := v.Serve(end); err != nil {
				t.Fatalf("request ending at the capacity: %v", err)
			}
			if level == RAID5 {
				s := newSession(t, fuzzVolume(t, level, 4), 0)
				if err := s.FailDisk(1, 0); err != nil {
					t.Fatal(err)
				}
				for _, write := range []bool{false, true} {
					end.Write = write
					if _, err := s.Serve(end); err != nil {
						t.Fatalf("degraded request ending at the capacity (write=%t): %v", write, err)
					}
				}
			}
		})
	}
}

func TestRAID5WriteFanout(t *testing.T) {
	v := testVolume(t, RAID5, 4)
	// A single-unit write costs 4 I/Os (read+write on data and parity).
	subs, err := v.mapRequest(Request{ID: 1, Block: 0, Sectors: 16, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("RMW fanned out to %d I/Os, want 4", len(subs))
	}
	reads, writes := 0, 0
	for _, s := range subs {
		if s.req.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads != 2 || writes != 2 {
		t.Errorf("RMW = %d reads, %d writes; want 2+2", reads, writes)
	}
	// A read costs 1.
	subs, err = v.mapRequest(Request{ID: 2, Block: 0, Sectors: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 {
		t.Errorf("read fanned out to %d I/Os, want 1", len(subs))
	}
}

func TestJBODSpansDiskBoundary(t *testing.T) {
	v := testVolume(t, JBOD, 2)
	per := v.perDisk
	subs, err := v.mapRequest(Request{ID: 1, Block: per - 4, Sectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("boundary request fanned out to %d subs, want 2", len(subs))
	}
	if subs[0].disk != 0 || subs[1].disk != 1 {
		t.Errorf("wrong disks: %d, %d", subs[0].disk, subs[1].disk)
	}
	if subs[0].req.Sectors != 4 || subs[1].req.Sectors != 4 {
		t.Errorf("wrong split: %d + %d", subs[0].req.Sectors, subs[1].req.Sectors)
	}
	if subs[1].req.LBN != 0 {
		t.Errorf("second chunk starts at %d, want 0", subs[1].req.LBN)
	}
}

func TestMapRequestBounds(t *testing.T) {
	v := testVolume(t, RAID5, 4)
	if _, err := v.mapRequest(Request{ID: 1, Block: -1, Sectors: 8}); err == nil {
		t.Error("negative block should be rejected")
	}
	if _, err := v.mapRequest(Request{ID: 1, Block: v.Capacity(), Sectors: 1}); err == nil {
		t.Error("out-of-range block should be rejected")
	}
	if _, err := v.mapRequest(Request{ID: 1, Block: 0, Sectors: 0}); err == nil {
		t.Error("empty request should be rejected")
	}
}

func TestSimulateJoinsCompletions(t *testing.T) {
	v := testVolume(t, RAID5, 4)
	reqs := []Request{
		{ID: 0, Arrival: 0, Block: 0, Sectors: 64, Write: false},
		{ID: 1, Arrival: time.Millisecond, Block: 1024, Sectors: 16, Write: true},
		{ID: 2, Arrival: 2 * time.Millisecond, Block: 4096, Sectors: 8},
	}
	comps, err := v.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("%d completions", len(comps))
	}
	for i, c := range comps {
		if c.Request.ID != int64(i) {
			t.Errorf("completions not sorted by arrival: %v", c.Request.ID)
		}
		if c.Finish <= c.Request.Arrival {
			t.Errorf("request %d finished before arriving", c.Request.ID)
		}
		if c.SubRequests < 1 {
			t.Errorf("request %d has no sub-requests", c.Request.ID)
		}
	}
	// The 64-sector read spans 4 stripe units -> 4 sub-requests.
	if comps[0].SubRequests != 4 {
		t.Errorf("striped read fanned to %d, want 4", comps[0].SubRequests)
	}
	// The single-unit write pays RMW.
	if comps[1].SubRequests != 4 {
		t.Errorf("RMW write fanned to %d, want 4", comps[1].SubRequests)
	}
}

func TestWriteBack(t *testing.T) {
	v := testVolume(t, RAID5, 4)
	v.SetWriteBack(300 * time.Microsecond)
	comps, err := v.Simulate([]Request{
		{ID: 0, Arrival: 0, Block: 0, Sectors: 16, Write: true},
		{ID: 1, Arrival: 0, Block: 4096, Sectors: 16, Write: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	var w, r Completion
	for _, c := range comps {
		if c.Request.Write {
			w = c
		} else {
			r = c
		}
	}
	if w.Response() != 300*time.Microsecond {
		t.Errorf("write-back write took %v, want 300µs", w.Response())
	}
	if r.Response() <= 300*time.Microsecond {
		t.Error("reads must still pay mechanical time under write-back")
	}
}

func TestRAID5FasterRPMFasterVolume(t *testing.T) {
	mk := func(rpm units.RPM) time.Duration {
		layout := testLayout(t)
		disks := make([]*disksim.Disk, 4)
		for i := range disks {
			d, err := disksim.New(disksim.Config{Layout: layout, RPM: rpm})
			if err != nil {
				t.Fatal(err)
			}
			disks[i] = d
		}
		v, err := New(RAID5, disks, 16)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, 100)
		state := uint64(99)
		for i := range reqs {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			reqs[i] = Request{
				ID:      int64(i),
				Arrival: time.Duration(i) * 4 * time.Millisecond,
				Block:   int64(state % uint64(v.Capacity()-64)),
				Sectors: 16,
				Write:   i%3 == 0,
			}
		}
		comps, err := v.Simulate(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, c := range comps {
			sum += c.Response()
		}
		return sum
	}
	if fast, slow := mk(20000), mk(10000); fast >= slow {
		t.Errorf("RAID-5 volume not faster at 20k RPM: %v vs %v", fast, slow)
	}
}

func TestMismatchedDisksRejected(t *testing.T) {
	layout := testLayout(t)
	other, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 2, FormFactor: geometry.FormFactor35},
		BPI:      456000, TPI: 45000, Zones: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := disksim.New(disksim.Config{Layout: layout, RPM: 10000})
	d2, _ := disksim.New(disksim.Config{Layout: other, RPM: 10000})
	if _, err := New(RAID0, []*disksim.Disk{d1, d2}, 16); err == nil {
		t.Error("mixed-capacity volume should be rejected")
	}
}

func TestRAID1Capacity(t *testing.T) {
	v := testVolume(t, RAID1, 2)
	if v.Capacity() != testLayout(t).TotalSectors() {
		t.Error("RAID-1 capacity should equal one member")
	}
	if RAID1.String() != "RAID-1" {
		t.Error("level name wrong")
	}
}

func TestRAID1NeedsTwoDisks(t *testing.T) {
	if _, err := New(RAID1, testDisks(t, 3, 10000), 16); err == nil {
		t.Error("3-disk RAID-1 should be rejected")
	}
	if _, err := New(RAID1, testDisks(t, 1, 10000), 16); err == nil {
		t.Error("1-disk RAID-1 should be rejected")
	}
}

func TestRAID1WritesMirrorReadsAlternate(t *testing.T) {
	v := testVolume(t, RAID1, 2)
	subs, err := v.mapRequest(Request{ID: 1, Block: 100, Sectors: 8, Write: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].disk == subs[1].disk {
		t.Fatalf("write fanned to %d subs", len(subs))
	}
	for _, s := range subs {
		if s.req.LBN != 100 || !s.req.Write {
			t.Errorf("bad mirrored write %+v", s.req)
		}
	}
	// Reads alternate members. (mapRequest's result is only valid until the
	// next mapRequest call — the fan-out buffer is reused — so the first
	// read's member is captured before mapping the second.)
	r1, _ := v.mapRequest(Request{ID: 2, Block: 0, Sectors: 8})
	if len(r1) != 1 {
		t.Fatal("reads must hit one member")
	}
	first := r1[0].disk
	r2, _ := v.mapRequest(Request{ID: 3, Block: 0, Sectors: 8})
	if len(r2) != 1 {
		t.Fatal("reads must hit one member")
	}
	if first == r2[0].disk {
		t.Error("consecutive reads should alternate members")
	}
}

func TestRAID1Simulate(t *testing.T) {
	v := testVolume(t, RAID1, 2)
	reqs := []Request{
		{ID: 0, Arrival: 0, Block: 0, Sectors: 8, Write: true},
		{ID: 1, Arrival: time.Millisecond, Block: 512, Sectors: 8},
		{ID: 2, Arrival: 2 * time.Millisecond, Block: 1024, Sectors: 8},
	}
	comps, err := v.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("%d completions", len(comps))
	}
	if comps[0].SubRequests != 2 {
		t.Errorf("mirrored write fanned to %d", comps[0].SubRequests)
	}
	if comps[1].SubRequests != 1 || comps[2].SubRequests != 1 {
		t.Error("reads should be single I/Os")
	}
}
