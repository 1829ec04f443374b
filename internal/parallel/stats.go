package parallel

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Pool observability: the worker pool is the one concurrent component of
// the repository, and the only one whose behavior the simulation results
// must NOT depend on — so its instruments measure host wall-clock time and
// surface on stderr only (the -j summary line of cmd/figures and
// cmd/calibrate, the heartbeat groundwork for a long-running daemon).
// Everything here is guarded by one mutex; tasks are whole simulation
// worlds, so the per-task accounting cost is noise.

// latencyBuckets spans 1ms..~8.7min of task wall time.
var latencyBuckets = metrics.ExpBuckets(1e-3, 2, 19)

// PoolStats is a snapshot of the pool's lifetime accounting.
type PoolStats struct {
	// Jobs is the configured pool width at snapshot time.
	Jobs int
	// Tasks and Batches count completed tasks and For calls.
	Tasks, Batches int64
	// BusyByWorker is the cumulative task wall time per worker slot
	// (index = worker id within a For call; the sequential fast path is
	// worker 0). Its length is the widest pool seen so far.
	BusyByWorker []time.Duration
	// QueueHighWater is the largest number of tasks that were waiting
	// (submitted but not yet claimed) at any task claim.
	QueueHighWater int64
	// TaskSeconds summarizes task wall latency in seconds.
	TaskSeconds stats.Summary
}

var poolMu sync.Mutex
var pool struct {
	tasks, batches int64
	busy           []time.Duration
	queueHWM       int64
	hist           *metrics.Histogram
	progress       func(done, total int)
	scope          *Scope
}

func poolHist() *metrics.Histogram {
	if pool.hist == nil {
		pool.hist = metrics.NewRegistry().Histogram("parallel.task_seconds", latencyBuckets)
	}
	return pool.hist
}

// taskClaimed records the queue depth observed when a worker claims task i
// of n (called with poolMu held).
func taskClaimed(i, n int) {
	if pending := int64(n - i - 1); pending > pool.queueHWM {
		pool.queueHWM = pending
	}
}

// taskDone folds one finished task into the accounting and fires the
// progress hook (called with poolMu held).
func taskDone(worker int, d time.Duration, done, total int) {
	for len(pool.busy) <= worker {
		pool.busy = append(pool.busy, 0)
	}
	pool.busy[worker] += d
	pool.tasks++
	poolHist().Observe(d.Seconds())
	if pool.progress != nil {
		pool.progress(done, total)
	}
	scopeTaskDone(done, total)
}

// SetProgress installs a hook called after every task completion with the
// batch's done and total counts. The hook runs under the pool's stats lock
// (so calls are serialized) on whichever worker finished the task; keep it
// fast and stderr-only. Pass nil to disable.
func SetProgress(fn func(done, total int)) {
	poolMu.Lock()
	defer poolMu.Unlock()
	pool.progress = fn
}

// Stats returns a snapshot of the pool's lifetime accounting.
func Stats() PoolStats {
	poolMu.Lock()
	defer poolMu.Unlock()
	s := PoolStats{
		Jobs:           Jobs(),
		Tasks:          pool.tasks,
		Batches:        pool.batches,
		BusyByWorker:   append([]time.Duration(nil), pool.busy...),
		QueueHighWater: pool.queueHWM,
		TaskSeconds:    poolHist().Summary(),
	}
	return s
}

// ResetStats clears the lifetime accounting (the progress hook stays).
func ResetStats() {
	poolMu.Lock()
	defer poolMu.Unlock()
	pool.tasks, pool.batches, pool.queueHWM = 0, 0, 0
	pool.busy = nil
	pool.hist = nil
}

// Summary renders the pool accounting as the one-line -j summary that
// cmd/figures and cmd/calibrate print to stderr.
func Summary() string {
	s := Stats()
	var busyMin, busyMax time.Duration
	for i, b := range s.BusyByWorker {
		if i == 0 || b < busyMin {
			busyMin = b
		}
		if b > busyMax {
			busyMax = b
		}
	}
	mean := 0.0
	if s.TaskSeconds.Count > 0 {
		mean = s.TaskSeconds.Sum / float64(s.TaskSeconds.Count)
	}
	return fmt.Sprintf("pool: j=%d workers=%d tasks=%d batches=%d queue-hwm=%d busy=%s..%s/worker task=%.3fs mean, %.3fs max",
		s.Jobs, len(s.BusyByWorker), s.Tasks, s.Batches, s.QueueHighWater,
		busyMin.Round(time.Millisecond), busyMax.Round(time.Millisecond),
		mean, s.TaskSeconds.Max)
}
