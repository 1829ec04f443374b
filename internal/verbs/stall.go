package verbs

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// StallEngines is the engine-stall fault of a verbs NIC: its transmit and
// receive protocol engines stop accepting work for d (firmware
// housekeeping, thermal throttling). Starting now, the stall takes units
// of tx, then of rx, holds both for d, releases them, then counts itself
// in stalls and traces an "engine-stall" span on the NIC's track. In-flight
// work finishes first, and queued work resumes exactly when the stall ends.
// It is a chain of handlers with one event at each point where a process
// doing the same would sleep or wake (docs/performance.md §10), so it
// interleaves with the NIC's own stages as that process would.
func StallEngines(eng *sim.Engine, track string, tx, rx *sim.Resource, units int, d sim.Time, stalls *metrics.Counter) {
	var start sim.Time
	eng.After(0, func() {
		start = eng.Now()
		tx.AcquireThen(units, func(any) {
			rx.AcquireThen(units, func(any) {
				eng.After(d, func() {
					rx.Release(units)
					tx.Release(units)
					stalls.Inc()
					eng.Trc().Complete(track, "engine-stall", int64(start), int64(eng.Now()))
				})
			}, nil)
		}, nil)
	})
}
