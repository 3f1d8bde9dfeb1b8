// Quickstart: build a two-flow scenario against the emulator's public
// pieces, run it, and print fairness statistics.
//
//	go run ./examples/quickstart
//
// Two TCP Vegas flows share a 48 Mbit/s bottleneck with an 80 ms
// propagation RTT; the second flow joins five seconds late. On this clean
// path they converge to an even split — the baseline that every other
// example perturbs.
package main

import (
	"fmt"
	"time"

	"starvation/internal/cca/vegas"
	"starvation/internal/network"
	"starvation/internal/trace"
	"starvation/internal/units"
)

func main() {
	net := network.New(
		network.Config{
			Links: network.SingleBottleneck(units.Mbps(48), 0),
			Seed:  1,
		},
		network.FlowSpec{
			Name: "early",
			Alg:  vegas.New(vegas.Config{}),
			Rm:   80 * time.Millisecond,
		},
		network.FlowSpec{
			Name:    "late",
			Alg:     vegas.New(vegas.Config{}),
			Rm:      80 * time.Millisecond,
			StartAt: 5 * time.Second,
		},
	)
	res := net.Run(60 * time.Second)

	fmt.Println("two Vegas flows on a clean 48 Mbit/s path:")
	fmt.Println(res)
	fmt.Println("late flow's rate over time:")
	fmt.Print(trace.ASCIIPlot(res.Flows[1].Rate, 72, 10, "rate (bit/s)"))

	if res.Jain() > 0.95 {
		fmt.Println("\n-> fair: on an ideal path, delay-convergent CCAs share evenly.")
		fmt.Println("   The starvation examples show what bounded delay ambiguity does to this.")
	}
}
