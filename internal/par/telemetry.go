package par

import (
	"sync/atomic"

	"goear/internal/telemetry"
)

// Metric names (the goearvet telemetry analyzer requires package-level
// constants matching ^goear_[a-z0-9_]+$, registered exactly once).
const (
	metricParTasks   = "goear_par_tasks_total"
	metricParWorkers = "goear_par_workers_started_total"
	metricParInline  = "goear_par_inline_loops_total"
	metricParActive  = "goear_par_active_workers"
	metricParQueue   = "goear_par_queue_depth"
)

// parTel is the package's instrument bundle; the atomic pointer stays
// nil until global telemetry is enabled, so the disabled fast path is
// one pointer load per ForEach (not per task).
type parTel struct {
	tasks   *telemetry.Counter
	workers *telemetry.Counter
	inline  *telemetry.Counter
	active  *telemetry.Gauge
	queue   *telemetry.Gauge
}

var tel atomic.Pointer[parTel]

func init() {
	telemetry.OnEnable(func(s *telemetry.Set) {
		if s == nil {
			tel.Store(nil)
			return
		}
		r := s.Registry
		tel.Store(&parTel{
			tasks:   r.Counter(metricParTasks, "tasks executed by par.ForEach"),
			workers: r.Counter(metricParWorkers, "workers of parallel par.ForEach calls, the calling goroutine counted as one"),
			inline:  r.Counter(metricParInline, "ForEach calls that ran inline (limit<=1 or n==1)"),
			active:  r.Gauge(metricParActive, "parallel ForEach workers currently running, calling goroutines included"),
			queue:   r.Gauge(metricParQueue, "tasks dispatched to par.ForEach and not yet finished"),
		})
	})
}
