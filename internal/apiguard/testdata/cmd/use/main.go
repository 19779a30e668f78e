package main

import (
	"flag"
	"fmt"

	"fixture/lib"
)

func main() {
	var c lib.Counter
	c.Inc()
	var v lib.Vec[int]
	v.Push(1)
	var o lib.Options
	flag.IntVar(&o.Workers, "workers", 1, "")
	lib.NewSmallPool().Deepen()
	fmt.Println(lib.Level(2), lib.Gauge{}, lib.Config{Leaves: 2}, lib.Params{}, lib.Spec{1, 2}, o)
}
