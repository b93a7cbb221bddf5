package experiments

import (
	"goear/internal/sim"
	"goear/internal/workload"
)

// fanWorkers fans items rows out on c and returns, in row order, the
// node workers prepare hands a run of the 4-node motivation kernel that
// each row asks for. Context.Run, RunSpec, Compare and RunPowercapped
// are fans of one.
func fanWorkers(c *Context, items int) ([]int, error) {
	_, calw, err := c.catalogCal(nil, workload.BTMZMotiv)
	if err != nil {
		return nil, err
	}
	got := make([]int, items)
	f := c.fan(items)
	err = f.rows(func(i int) error {
		opt, err := f.prepare(calw, sim.Options{})
		got[i] = opt.Workers
		return err
	})
	return got, err
}
