package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"semloc/internal/core"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/workloads"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShortMode runs every workload of BENCHMARK.json briefly on shrunken
// inputs, untraced and traced, and checks that the run passes its
// correctness gates and emits exactly the metrics BENCHMARK.json names,
// each finite and with its unit.
func TestShortMode(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(benchWorkloads))
	}
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := w.Name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					workload: w.Name,
					seed:     3,
					seconds:  300 * time.Millisecond,
					trace:    traced,
					spanDir:  t.TempDir(),
					scale:    0.05,
				}
				if _, ok := benchWorkloads[w.Name]; !ok {
					t.Fatalf("unknown workload %q", w.Name)
				}
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				if !traced {
					for _, name := range []string{"setup_s", "ns_per_access", "latency_p50_us", "sim_speedup_geomean"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

// resetCounter is a prefetcher that only counts ResetMetrics calls.
type resetCounter struct{ resets int }

func (r *resetCounter) Name() string                               { return "reset-counter" }
func (r *resetCounter) OnAccess(*prefetch.Access, prefetch.Issuer) {}
func (r *resetCounter) ResetMetrics()                              { r.resets++ }

// TestDecorator checks that the timing decorator forwards ResetMetrics and
// leaves every simulated statistic unchanged.
func TestDecorator(t *testing.T) {
	rc := &resetCounter{}
	newTimedPrefetcher(rc, &opLog{}).ResetMetrics()
	if rc.resets != 1 {
		t.Fatalf("ResetMetrics forwarded %d times, want 1", rc.resets)
	}

	w, err := workloads.ByName("list")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workloads.GenConfig{Scale: 0.05, Seed: 2})
	b := &bench{cfg: config{seed: 2}}
	for _, pf := range []string{"none", "context", "sms"} {
		c := simCell{simInput{"list", 0.05}, pf}
		plainPF, err := b.newPrefetcher(c)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sim.Run(tr, plainPF, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		inner, err := b.newPrefetcher(c)
		if err != nil {
			t.Fatal(err)
		}
		tp := newTimedPrefetcher(inner, &opLog{})
		traced, err := sim.Run(tr, tp, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(plain, traced) {
			t.Errorf("%s: decorated run differs from the plain run", pf)
		}
		if tp.log.resetAt <= 0 {
			t.Errorf("%s: warm-up reset not seen (resetAt %d)", pf, tp.log.resetAt)
		}
		if cp, ok := inner.(*core.Prefetcher); ok && cp.Metrics().Accesses >= tp.calls {
			t.Errorf("%s: learner counted %d accesses of %d: its metrics were not reset at warm-up", pf, cp.Metrics().Accesses, tp.calls)
		}
	}
}
