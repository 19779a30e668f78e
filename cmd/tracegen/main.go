// Command tracegen emits a synthetic production trace as CSV on stdout.
//
// Usage:
//
//	tracegen -trace saturn -jobs 5000 > saturn.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
)

func main() {
	traceName := flag.String("trace", "venus", "trace: venus | saturn | philly")
	jobs := flag.Int("jobs", 0, "job count (0 = the Table 2 count)")
	months := flag.Int("months", 1, "months to emit (later months recur on the same templates)")
	flag.Parse()

	spec, ok := trace.SpecByName(strings.ToLower(*traceName))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown trace %q\n", *traceName)
		os.Exit(2)
	}

	g := trace.NewGenerator(spec)
	for m := 0; m < *months; m++ {
		tr := g.Emit(*jobs)
		if err := tr.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
