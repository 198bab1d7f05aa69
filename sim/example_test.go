package sim_test

import (
	"fmt"

	"spinal"
	"spinal/sim"
)

// quickParams keeps the examples fast; they demonstrate the harness, not
// the code's peak rate.
func quickParams() spinal.Params {
	p := spinal.DefaultParams()
	p.B = 8
	return p
}

// ExampleMeasureDaemonLoad sweeps concurrent flows through one
// spinald-style daemon and reports the multiplexing gain: with one flow
// per shard, aggregate goodput grows with the flow count.
func ExampleMeasureDaemonLoad() {
	points, err := sim.MeasureDaemonLoad(sim.DaemonLoadConfig{
		Shards:     2,
		Params:     quickParams(),
		SNRdB:      10,
		Size:       64,
		FlowCounts: []int{1, 2},
		Seed:       1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, pt := range points {
		fmt.Printf("flows=%d delivered=%d outaged=%d\n", pt.Flows, pt.Delivered, pt.Outaged)
	}
	fmt.Println("goodput doubled:", points[1].Goodput > 1.9*points[0].Goodput)
	// Output:
	// flows=1 delivered=1 outaged=0
	// flows=2 delivered=2 outaged=0
	// goodput doubled: true
}
