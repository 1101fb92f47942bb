package obs

import (
	"testing"
	"time"
)

func TestRuntimeSamplerRegistersGauges(t *testing.T) {
	reg := NewRegistry()
	s := StartRuntimeSampler(reg, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent

	got := make(map[string]float64)
	for _, fam := range reg.Snapshot() {
		for _, series := range fam.Series {
			got[fam.Name] = series.Value
		}
	}
	for _, name := range []string{
		"go_heap_alloc_bytes", "go_heap_sys_bytes", "go_goroutines",
		"go_gc_pause_seconds_total", "go_gc_cycles_total",
	} {
		v, ok := got[name]
		if !ok {
			t.Errorf("gauge %s not registered", name)
			continue
		}
		if name == "go_heap_alloc_bytes" || name == "go_goroutines" {
			if v <= 0 {
				t.Errorf("%s = %g, want > 0", name, v)
			}
		}
	}
}

func TestRuntimeSamplerNilStop(t *testing.T) {
	var s *RuntimeSampler
	s.Stop() // must not panic
}

// TestRecorderCloseStopsSampler is the sampler-shutdown leak check
// (the analogue of the replay package's goroutine-leak tests): a
// sampler started through the recorder must not outlive Close. Each
// sampler goroutine closes its own done channel on exit, so the check
// watches exactly the recorder's samplers: every done channel is open
// while they run and closed once Close returns, with no dependence on
// unrelated goroutines elsewhere in the process.
func TestRecorderCloseStopsSampler(t *testing.T) {
	rec := NewRecorder()
	var samplers []*RuntimeSampler
	for i := 0; i < 3; i++ {
		samplers = append(samplers, rec.StartRuntimeSampler(time.Millisecond))
	}
	time.Sleep(5 * time.Millisecond)
	for i, s := range samplers {
		select {
		case <-s.done:
			t.Fatalf("sampler %d exited before Close", i)
		default:
		}
	}
	rec.Close()
	rec.Close() // idempotent
	for i, s := range samplers {
		select {
		case <-s.done:
		default:
			t.Fatalf("sampler %d still running after Close returned", i)
		}
	}
}

// A sampler stopped directly and then again via Close must not
// double-close or hang.
func TestRecorderCloseAfterManualStop(t *testing.T) {
	rec := NewRecorder()
	s := rec.StartRuntimeSampler(time.Millisecond)
	s.Stop()
	rec.Close()
}
