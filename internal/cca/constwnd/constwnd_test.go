package constwnd

import (
	"testing"
	"time"

	"starvation/internal/cca"
	"starvation/internal/network"
	"starvation/internal/units"
)

func TestConstWindowNeverMoves(t *testing.T) {
	c := New(1500, 10)
	w := c.Window()
	c.OnAck(cca.AckSignal{Now: time.Second, RTT: 100 * time.Millisecond, AckedBytes: 1500})
	c.OnLoss(cca.LossSignal{Now: 2 * time.Second, Bytes: 1500, NewEvent: true, Timeout: true})
	if c.Window() != w {
		t.Error("constant window moved")
	}
	if c.PacingRate() != 0 {
		t.Error("constwnd must be ACK-clocked")
	}
}

func TestConstWindowIsNotFEfficient(t *testing.T) {
	// Definition 4's counterexample: cwnd=10 always caps throughput at
	// 10·MSS/RTT no matter the link rate, so its achieved fraction f
	// vanishes as C grows — exactly why the theorem excludes it.
	for _, c := range []units.Rate{units.Mbps(12), units.Mbps(120)} {
		n := network.New(
			network.Config{Links: network.SingleBottleneck(c, 0), Seed: 1},
			network.FlowSpec{Alg: New(1500, 10), Rm: 100 * time.Millisecond},
		)
		res := n.Run(10 * time.Second)
		want := units.Rate(10 * 1500 * 8 / 0.1) // 1.2 Mbit/s
		got := res.Flows[0].Stat.SteadyThpt
		if float64(got) < float64(want)*0.9 || float64(got) > float64(want)*1.1 {
			t.Errorf("C=%v: throughput %v, want ~%v (window-capped)", c, got, want)
		}
	}
}

func TestDefaults(t *testing.T) {
	c := New(0, 0)
	if c.Window() != 10*1500 {
		t.Errorf("default window = %d, want 15000", c.Window())
	}
	if cca.Lookup("constwnd") == nil {
		t.Error("constwnd not registered")
	}
}
