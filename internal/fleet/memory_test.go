package fleet

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTenThousandDriveMemoryCeiling pins the streaming contract at the
// acceptance scale: 10,000 drives across 100 chassis must run with memory
// proportional to the in-flight rack window, not the fleet. Heap ceilings
// are an RSS proxy via the runtime's alloc accounting: the peak live heap
// during the run stays under a window-sized bound, and nothing
// fleet-sized survives the run.
func TestTenThousandDriveMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-drive run in -short mode")
	}
	cfg := Config{
		Topology: Topology{Racks: 10, ChassisPerRack: 10, SlotsPerChassis: 100},
		// A 100-slot cage needs airflow to match: at the 30 CFM default
		// the downstream slots would sit far above the envelope and every
		// request would throttle into the cool-limit.
		Scenario: Scenario{AirflowCFM: 300},
		Workload: Workload{RequestsPerDrive: 20, Seed: 3},
		Workers:  8,
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&m)
				for {
					old := peak.Load()
					if m.HeapAlloc <= old || peak.CompareAndSwap(old, m.HeapAlloc) {
						break
					}
				}
			}
		}
	}()

	var racks int
	sum, err := Run(context.Background(), cfg, func(RackSummary) error { racks++; return nil })
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	if sum.Drives != 10000 || racks != 10 {
		t.Fatalf("ran %d drives over %d racks", sum.Drives, racks)
	}
	if want := int64(10000 * cfg.Workload.RequestsPerDrive); sum.Requests != want {
		t.Fatalf("served %d requests, want %d", sum.Requests, want)
	}

	// Peak live heap: the window (4 racks = 4000 drives of disk state)
	// plus accumulators, nowhere near a fleet-sized retention. 128 MB is
	// ~4x headroom over what the window actually needs.
	if p := peak.Load(); p > m0.HeapAlloc && p-m0.HeapAlloc > 128<<20 {
		t.Fatalf("peak heap grew %d MB during the run", (p-m0.HeapAlloc)>>20)
	}

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > m0.HeapAlloc && m1.HeapAlloc-m0.HeapAlloc > 32<<20 {
		t.Fatalf("run retained %d MB", (m1.HeapAlloc-m0.HeapAlloc)>>20)
	}
}

// allocSlack absorbs run-to-run spread in the fleet's set-up allocations
// (the generator pool refilling after a collection; repeated runs measure
// within about a dozen of each other). One allocation per request would add
// 11,520 to the long run.
const allocSlack = 64

// TestAllocsIndependentOfRequestsPerDrive pins the chassis loop's
// allocation contract: admission reuses one event closure per stream and
// the pooled generators, so a fleet run's allocations are its per-drive
// set-up and do not grow with the stream length.
func TestAllocsIndependentOfRequestsPerDrive(t *testing.T) {
	run := func(requests int) float64 {
		cfg := Config{
			Topology:  Topology{Racks: 2, ChassisPerRack: 2, SlotsPerChassis: 8},
			Workload:  Workload{RequestsPerDrive: requests, Seed: 5},
			Placement: PlaceCoolest,
			Migration: Migration{ThresholdC: 31, HysteresisC: 0.5},
			Workers:   1,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(context.Background(), cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(40), run(400)
	t.Logf("allocs per run: %v at 40 requests per drive, %v at 400", short, long)
	if long > short+allocSlack {
		t.Errorf("allocations grow with the stream: %v at 40 requests per drive, %v at 400", short, long)
	}
}
