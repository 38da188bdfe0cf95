package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"plos/internal/transport"
)

func TestTailPercentileRank(t *testing.T) {
	// 1..40 shuffled: ten samples (31..40) lie beyond rank 30.
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	got, ok := tailPercentile(xs)
	if !ok || got.Value != 30 || got.Rank != 30 || got.Percentile != 75 || got.N != 40 {
		t.Fatalf("tailPercentile(1..40) = %+v, %v; want value 30, rank 30, p75, n 40", got, ok)
	}
	got, ok = tailPercentile(xs[:11])
	if !ok || got.Rank != 1 || got.Value != 30 {
		t.Fatalf("tailPercentile(30..40) = %+v, %v; want the minimum at rank 1", got, ok)
	}
	if _, ok := tailPercentile(xs[:10]); ok {
		t.Fatal("ten samples leave none with ten beyond it")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFailedRatio(t *testing.T) {
	if got := failedRatio(1, 4); got != 0.25 {
		t.Errorf("failedRatio(1, 4) = %v, want 0.25", got)
	}
	if got := failedRatio(0, 0); got != 0 {
		t.Errorf("failedRatio(0, 0) = %v, want 0", got)
	}
}

func TestPerUserBytesAttribution(t *testing.T) {
	// Coordinator-side stats: what it sent is the device's downlink, what it
	// received the device's uplink.
	up, down := perUserBytes([]transport.Stats{
		{BytesSent: 100, BytesReceived: 10},
		{BytesSent: 300, BytesReceived: 30},
	})
	if up != 20 || down != 200 {
		t.Fatalf("perUserBytes = up %v down %v, want up 20 down 200", up, down)
	}
}

func TestOverheadRatio(t *testing.T) {
	got := overheadRatio([]float64{1.02, 1.1, 0.9}, []float64{1, 0.8, 1.2})
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("overheadRatio = %v, want 0.02", got)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "train", Start: 0, End: 10 * time.Second},
		{ID: 2, Parent: 1, Name: "device", Start: 1 * time.Second, End: 5 * time.Second},
		{ID: 3, Parent: 1, Name: "device", Start: 2 * time.Second, End: 6 * time.Second},
	}}
	got := tr.selfTimes()
	if got["train"] != 5*time.Second || got["device"] != 8*time.Second {
		t.Fatalf("selfTimes = %v, want train 5s (10s minus the 1s–6s union), device 8s", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's workload and metric
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run", w.Name)
		}
	}
	for _, c := range []struct {
		json  []def
		table []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.table) {
			t.Errorf("BENCHMARK.json lists %d metrics, the table %d", len(c.json), len(c.table))
			continue
		}
		for i, d := range c.json {
			m := c.table[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, table %s %s %s", i, d, m.name, m.unit, m.better)
			}
		}
	}
}
