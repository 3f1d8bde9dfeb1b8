package network

import (
	"testing"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/units"
)

func TestVegasSingleFlowIdealPath(t *testing.T) {
	n := New(
		Config{Links: SingleBottleneck(units.Mbps(12), 0), Seed: 1},
		FlowSpec{
			Name: "vegas",
			Alg:  vegas.New(vegas.Config{}),
			Rm:   100 * time.Millisecond,
		},
	)
	res := n.Run(30 * time.Second)
	t.Logf("\n%s", res)

	util := res.Utilization()
	if util < 0.9 {
		t.Errorf("utilization = %.3f, want >= 0.9", util)
	}
	// Equilibrium RTT should be Rm + (queued pkts)/C with ~4 packets
	// queued: 100ms + 4*1500*8/12e6 = 104 ms.
	f := res.Flows[0].Stat
	if f.SteadyRTTLo < 100*time.Millisecond || f.SteadyRTTHi > 112*time.Millisecond {
		t.Errorf("steady RTT [%v, %v], want within [100ms, 112ms]", f.SteadyRTTLo, f.SteadyRTTHi)
	}
	if f.LossEvents != 0 {
		t.Errorf("loss events = %d on an ideal path, want 0", f.LossEvents)
	}
}
