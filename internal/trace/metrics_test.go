package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Add("queries", 1)
	r.Add("queries", 2)
	r.SetGauge("coverage", 0.25)
	r.SetGauge("coverage", 0.5)
	for _, v := range []float64{0.5, 1, 3, 100} {
		r.Observe("stage_blocks", v)
	}
	s := r.Snapshot()
	if s.Counters["queries"] != 3 {
		t.Errorf("counter = %d, want 3", s.Counters["queries"])
	}
	if s.Gauges["coverage"] != 0.5 {
		t.Errorf("gauge = %g, want 0.5 (last wins)", s.Gauges["coverage"])
	}
	h := s.Histograms["stage_blocks"]
	if h.Count != 4 || h.Min != 0.5 || h.Max != 100 || h.Sum != 104.5 {
		t.Errorf("histogram = %+v", h)
	}
	want := []Bucket{{K: 0, Count: 2}, {K: 2, Count: 1}, {K: 7, Count: 1}}
	if !reflect.DeepEqual(h.Buckets, want) {
		t.Errorf("buckets = %v, want %v", h.Buckets, want)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Add("x", 1)
	r.SetGauge("y", 1)
	r.Observe("z", 1)
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestSnapshotDeterministicJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Add("b_counter", 2)
	r.Add("a_counter", 1)
	r.SetGauge("g", 1.5)
	r.Observe("h", 10)
	a, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("snapshot JSON not deterministic")
	}
	text := r.Snapshot().String()
	ai := strings.Index(text, "a_counter")
	bi := strings.Index(text, "b_counter")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("text rendering not sorted:\n%s", text)
	}
	if !strings.Contains(text, "histogram h") || !strings.Contains(text, "count=1") {
		t.Errorf("text rendering missing histogram line:\n%s", text)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add("n", 1)
				r.Observe("v", float64(j))
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["n"] != 8000 || s.Histograms["v"].Count != 8000 {
		t.Errorf("lost updates: %+v", s.Counters)
	}
}

// TestUpdateAtomicBatch is the torn-snapshot regression test: every
// Update writes a counter, a gauge and a histogram observation that must
// stay in lockstep. A snapshot taken between the individual writes of a
// batch (the pre-Update behaviour: one lock acquisition per call) would
// observe queries counted whose stages or histogram entry are missing.
func TestUpdateAtomicBatch(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				r.Update(func(tx Tx) {
					tx.Add("queries", 1)
					tx.Add("stages", 3)
					tx.Observe("stages_per_query", 3)
					tx.SetGauge("last_stages", 3)
				})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	snaps := 0
	for {
		select {
		case <-done:
			if snaps == 0 {
				t.Fatal("reader never snapshotted")
			}
			s := r.Snapshot()
			if s.Counters["queries"] != 8000 || s.Counters["stages"] != 24000 {
				t.Errorf("lost batched updates: %+v", s.Counters)
			}
			return
		default:
			s := r.Snapshot()
			snaps++
			q, st := s.Counters["queries"], s.Counters["stages"]
			if st != 3*q {
				t.Fatalf("torn snapshot: queries=%d stages=%d (want stages = 3*queries)", q, st)
			}
			if h := s.Histograms["stages_per_query"]; h.Count != q {
				t.Fatalf("torn snapshot: queries=%d histogram count=%d", q, h.Count)
			}
		}
	}
}

func TestUpdateNilSafe(t *testing.T) {
	var r *Registry
	r.Update(func(tx Tx) { tx.Add("x", 1) })
	NewRegistry().Update(nil)
}

func TestResetClears(t *testing.T) {
	r := NewRegistry()
	r.Add("n", 5)
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("reset did not clear counters")
	}
}
