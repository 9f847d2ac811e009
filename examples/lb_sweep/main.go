// Segment-size sweep (the Fig. 15 / Table II workflow): compare resonator
// partitioning granularities l_b ∈ {0.2, 0.3, 0.4} mm on one topology. The
// sweep shares one engine, so the device and frequency assignment are reused
// and only the l_b-dependent stages rerun.
package main

import (
	"context"
	"fmt"
	"log"

	"qplacer"
)

func main() {
	ctx := context.Background()
	eng := qplacer.New(qplacer.WithTopology("falcon"))

	fmt.Println("lb(mm)  cells  util   Ph(%)   runtime")
	for _, lb := range []float64{0.2, 0.3, 0.4} {
		plan, err := eng.Plan(ctx, qplacer.WithLB(lb))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.1f     %4d   %.3f  %.3f  %.0f ms\n",
			lb, plan.NumCells, plan.Metrics.Utilization, plan.Metrics.Ph,
			plan.Timings.Find("place").WallMS)
	}
}
