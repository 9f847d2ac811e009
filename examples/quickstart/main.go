// Quickstart: build a reusable engine, place the 5×5 grid device with the
// frequency-aware scheme, and evaluate the whole Table I benchmark suite
// concurrently.
package main

import (
	"context"
	"fmt"
	"log"

	"qplacer"
)

func main() {
	ctx := context.Background()
	eng := qplacer.New(qplacer.WithTopology("grid"))

	plan, err := eng.Plan(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %d cells on %s in %.0f ms (%d iterations)\n",
		plan.NumCells, plan.Device.Name, plan.Timings.Find("place").WallMS, plan.PlaceIterations)
	fmt.Printf("area %.1f mm², utilization %.2f, hotspot proportion %.3f%%\n",
		plan.Metrics.Amer, plan.Metrics.Utilization, plan.Metrics.Ph)

	// One benchmark...
	ev, err := eng.Evaluate(ctx, plan, "bv-4", 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bv-4 mean fidelity over %d mappings: %.4f\n", ev.NumMappings, ev.MeanFidelity)

	// ...or the whole suite, fanned out over a bounded worker pool.
	batch, err := eng.EvaluateAll(ctx, plan, nil, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("suite mean fidelity %.4f over %d benchmarks (%d mappings, %v)\n",
		batch.MeanFidelity, len(batch.Results), batch.TotalMappings,
		batch.Elapsed.Round(1e6))
}
