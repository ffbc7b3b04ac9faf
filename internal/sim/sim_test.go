package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(3*time.Second, func(*Engine) { got = append(got, 3) })
	e.At(1*time.Second, func(*Engine) { got = append(got, 1) })
	e.At(2*time.Second, func(*Engine) { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock at %v, want 3s", e.Now())
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func(*Engine) { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order %v, want scheduling order", got)
		}
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(5*time.Second, func(eng *Engine) {
		eng.At(time.Second, func(eng *Engine) { at = eng.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("past event fired at %v, want clamped to 5s", at)
	}
}

func TestHandlersScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func(*Engine)
	chain = func(eng *Engine) {
		n++
		if n < 100 {
			eng.After(time.Millisecond, chain)
		}
	}
	e.At(0, chain)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("chain ran %d times, want 100", n)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("clock at %v, want 99ms", e.Now())
	}
}

func TestFailAbortsRun(t *testing.T) {
	e := NewEngine()
	boom := errors.New("boom")
	ran := false
	e.At(time.Second, func(eng *Engine) { eng.Fail(boom) })
	e.At(2*time.Second, func(*Engine) { ran = true })
	if err := e.Run(); !errors.Is(err, boom) {
		t.Fatalf("Run err = %v, want boom", err)
	}
	if ran {
		t.Fatal("event after Fail still fired")
	}
}

func TestStopEndsRunCleanly(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(time.Second, func(eng *Engine) { eng.Stop() })
	e.At(2*time.Second, func(*Engine) { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("event after Stop still fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d after Stop, want 1", e.Pending())
	}
}

func TestEveryTicks(t *testing.T) {
	e := NewEngine()
	var ticks []time.Duration
	e.Every(time.Second, time.Second, func(now time.Duration) bool {
		ticks = append(ticks, now)
		return len(ticks) < 4
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine()
		var log []time.Duration
		e.Every(0, 3*time.Millisecond, func(now time.Duration) bool {
			log = append(log, now)
			return now < 30*time.Millisecond
		})
		e.Every(0, 5*time.Millisecond, func(now time.Duration) bool {
			log = append(log, now+1) // distinguishable from the first ticker
			return now < 30*time.Millisecond
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSliceSourceAndCollect(t *testing.T) {
	src := FromSlice([]int{1, 2, 3})
	got := Collect(src)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("collect %v", got)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded an item")
	}
}

// TestFuncAdapters: SinkFunc and CheckpointFunc call through, and Discard
// accepts anything.
func TestFuncAdapters(t *testing.T) {
	var got []int
	var sink Sink[int] = SinkFunc[int](func(v int) { got = append(got, v) })
	sink.Push(4)
	Discard[int]().Push(5)
	var pos int64
	var cp Checkpointer = CheckpointFunc(func(p int64) { pos = p })
	cp.Checkpoint(9)
	if len(got) != 1 || got[0] != 4 || pos != 9 {
		t.Fatalf("sink got %v, checkpoint %d; want [4] and 9", got, pos)
	}
}

func TestAppenderSink(t *testing.T) {
	var a Appender[int]
	a.Push(7)
	a.Push(8)
	if len(a.Items) != 2 || a.Items[1] != 8 {
		t.Fatalf("appender %v", a.Items)
	}
}

// TestEngineContextCancels: a context cancelled inside an event stops the
// run before the next event fires and Run reports ctx.Err(); a context
// that can never be cancelled changes nothing.
func TestEngineContextCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine()
	e.SetContext(ctx)
	var fired []int
	e.At(time.Second, func(*Engine) { fired = append(fired, 1); cancel() })
	e.At(2*time.Second, func(*Engine) { fired = append(fired, 2) })
	if err := e.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if len(fired) != 1 || e.Pending() != 1 {
		t.Fatalf("fired %v with %d pending, want [1] and 1", fired, e.Pending())
	}

	e = NewEngine()
	e.SetContext(context.Background())
	n := 0
	e.Every(0, time.Millisecond, func(time.Duration) bool { n++; return n < 10 })
	if err := e.Run(); err != nil || n != 10 {
		t.Fatalf("background context: Run err = %v after %d ticks, want nil after 10", err, n)
	}
}

// TestEngineContextDoneBeforeRun: a context already done when the run
// starts fires nothing.
func TestEngineContextDoneBeforeRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	e := NewEngine()
	e.SetContext(ctx)
	ran := false
	e.At(0, func(*Engine) { ran = true })
	if err := e.Run(); !errors.Is(err, context.DeadlineExceeded) || ran {
		t.Fatalf("Run err = %v, ran = %v; want DeadlineExceeded and no event", err, ran)
	}
}

// TestChainOutOfOrder: a source that goes back in time fails the engine
// with ErrOutOfOrder after serving the items before it; equal times pass.
func TestChainOutOfOrder(t *testing.T) {
	e := NewEngine()
	var served []int
	ended := false
	Chain(e, FromSlice([]int{1, 3, 3, 2, 5}),
		func(v int) time.Duration { return time.Duration(v) * time.Second },
		func(_ *Engine, v int) bool { served = append(served, v); return true },
		func() { ended = true })
	if err := e.Run(); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("Run err = %v, want ErrOutOfOrder", err)
	}
	if len(served) != 3 || served[2] != 3 || ended {
		t.Fatalf("served %v, ended=%v; want [1 3 3] and no end", served, ended)
	}
}
