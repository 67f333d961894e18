package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// runWave runs one wave of independent jobs to completion: on the calling
// goroutine, in order, when one worker or one job makes a pool pointless —
// every serial store and load — else on min(workers, len(jobs)) goroutines
// pulling job indices. It is the one place internal/core starts a goroutine
// (enforced by cmd/commitvet), under the commit engine's fill and the read
// engine's scatter alike.
//
// Jobs only move bytes between buffers they own exclusively: no clock, no
// allocator, no device bookkeeping. The coordinator captures before the wave
// and charges and persists after the join, so virtual time and the crash
// simulator's persist order do not depend on goroutine scheduling.
//
// An inline wave stops at its first error; a pooled wave runs every job and
// reports the lowest failing index. run is told which worker runs the job —
// 0 inline, 0 to min(workers, len(jobs))-1 on the pool — so a job can use
// scratch of its worker's own.
func runWave[C, J any](workers int, ctx C, jobs []J, run func(C, int, *J) error) error {
	if workers <= 1 || len(jobs) <= 1 {
		for i := range jobs {
			if err := run(ctx, 0, &jobs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				errs[i] = run(ctx, w, &jobs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: wave job %d: %w", i, err)
		}
	}
	return nil
}
