// Package sim is a commitvet fixture: the cost model's own directory, the one
// place a clock may be advanced.
package sim

type clock struct{}

func (clock) Advance(d int) {}

func chargeFence(clk clock) { clk.Advance(125) }
