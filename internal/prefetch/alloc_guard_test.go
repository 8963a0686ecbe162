//go:build !race

package prefetch

import "testing"

// TestBaselinesZeroAllocSteadyState pins GHB and SMS OnAccess at 0 allocs
// once warm. A GHB index slot allocates its stream window on first touch
// only, so a second pass over the same stream must not allocate. Race
// builds are excluded: the detector's instrumentation perturbs allocation
// counts.
func TestBaselinesZeroAllocSteadyState(t *testing.T) {
	ghbStream := ghbTestStream(1, 4096, 8)
	for _, c := range []struct {
		p      Prefetcher
		stream []Access
	}{
		{NewGHB(DefaultGHBConfig(LocalizeGlobal)), ghbStream},
		{NewGHB(DefaultGHBConfig(LocalizePC)), ghbStream},
		{NewSMS(DefaultSMSConfig()), smsTestStream(1, 4096)},
	} {
		iss := &nopIssuer{}
		pass := func() {
			for i := range c.stream {
				c.p.OnAccess(&c.stream[i], iss)
			}
		}
		pass()
		if n := testing.AllocsPerRun(5, pass); n != 0 {
			t.Errorf("%s: %.2f allocs per pass after warm-up, want 0", c.p.Name(), n)
		}
	}
}
